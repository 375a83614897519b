type constraint_times = {
  ready : Hb_util.Time.t array;
  required : Hb_util.Time.t array;
  net_slack : Hb_util.Time.t array;
  snatch_backward_cycles : int;
  snatch_forward_cycles : int;
  capped : bool;
}

type direction = Forward | Backward

(* One snatching step across all elements from one slack snapshot.
   Forward snatching takes time from upstream when the paths leaving the
   element's output are too slow; backward snatching takes time from
   downstream when the paths converging on its data input are too slow.
   A gather pass writes each element's amount into [amounts], from the
   elements' cached headrooms with the [Hb_util.Time] tests written out,
   and [Hb_sync.Element.shift_all] applies them, so no float is boxed
   per element. An element's amount reads only its own offsets, so
   gathering every amount before the first shift changes nothing. *)
let snatch (ctx : Context.t) (slacks : Slacks.t) direction ~amounts =
  let all = ctx.Context.elements.Elements.all in
  let eps = Hb_util.Time.eps and zero = Hb_util.Time.zero in
  for e = 0 to Array.length all - 1 do
    let offsets = all.(e).Hb_sync.Element.offsets in
    let node_slack =
      match direction with
      | Forward -> slacks.Slacks.element_output_slack.(e)
      | Backward -> slacks.Slacks.element_input_slack.(e)
    in
    let headroom =
      match direction with
      | Forward -> offsets.Hb_sync.Element.forward_headroom
      | Backward -> offsets.Hb_sync.Element.backward_headroom
    in
    (* Hb_util.Time.is_negative node_slack, then
       Hb_util.Time.min (-.node_slack) headroom *)
    amounts.(e) <-
      (if node_slack +. eps < zero then
         let need = -.node_slack in
         if need <= headroom then need else headroom
       else 0.0)
  done;
  Hb_sync.Element.shift_all all amounts
    ~forward:(match direction with Forward -> true | Backward -> false)

let run (ctx : Context.t) =
  let cap = ctx.Context.config.Config.max_transfer_iterations in
  let capped = ref false in
  (* The snatch loops read element-only snapshots written into these two
     buffers and gather their amounts into a third; each phase then exits
     through one full compute, which the cluster cache serves without
     re-evaluating anything. *)
  let element_count = Elements.count ctx.Context.elements in
  let input_slack = Array.make element_count 0.0 in
  let output_slack = Array.make element_count 0.0 in
  let amounts = Array.make element_count 0.0 in
  let snatch_phase direction =
    let cycles = ref 0 in
    let rec loop () =
      Hb_util.Timeout.check ();
      let slacks = Slacks.compute_elements ctx ~input_slack ~output_slack in
      if !cycles >= cap then capped := true
      else begin
        incr cycles;
        if snatch ctx slacks direction ~amounts then loop ()
      end
    in
    loop ();
    (Slacks.compute ctx, !cycles)
  in
  (* Iteration 1: backward snatching, then record ready times. *)
  let after_backward, snatch_backward_cycles = snatch_phase Backward in
  (* Iteration 2: forward snatching, then record required times. *)
  let after_forward, snatch_forward_cycles = snatch_phase Forward in
  { ready = after_backward.Slacks.net_ready;
    required = after_forward.Slacks.net_required;
    net_slack = after_forward.Slacks.net_slack;
    snatch_backward_cycles;
    snatch_forward_cycles;
    capped = !capped;
  }

type module_constraint = {
  inst : int;
  inst_name : string;
  slack : Hb_util.Time.t;
  input_ready : (string * Hb_util.Time.t) list;
  output_required : (string * Hb_util.Time.t) list;
}

(* Constraint emission is independent per instance (pure reads of the
   recorded times), so slow-path-heavy designs fan it across the domain
   pool; results are collected in instance order and sorted exactly as
   the sequential version, so the output is deterministic. *)
let module_constraints (ctx : Context.t) times =
  let design = ctx.Context.design in
  let examine =
      (fun inst ->
         let record = Hb_netlist.Design.instance design inst in
         let cell = record.Hb_netlist.Design.cell in
         let pin_net pin =
           Hb_netlist.Design.net_of_pin design ~inst
             ~pin:pin.Hb_cell.Cell.pin_name
         in
         let worst = ref Hb_util.Time.infinity in
         let note net =
           let slack = times.net_slack.(net) in
           if Hb_util.Time.is_finite slack && slack < !worst then worst := slack
         in
         List.iter (fun p -> Option.iter note (pin_net p)) cell.Hb_cell.Cell.pins;
         if Hb_util.Time.le !worst 0.0 then begin
           let input_ready =
             List.filter_map
               (fun pin ->
                  match pin_net pin with
                  | Some net when Float.is_finite times.ready.(net) ->
                    Some (pin.Hb_cell.Cell.pin_name, times.ready.(net))
                  | Some _ | None -> None)
               (Hb_cell.Cell.input_pins cell)
           in
           let output_required =
             List.filter_map
               (fun pin ->
                  match pin_net pin with
                  | Some net when Float.is_finite times.required.(net) ->
                    Some (pin.Hb_cell.Cell.pin_name, times.required.(net))
                  | Some _ | None -> None)
               (Hb_cell.Cell.output_pins cell)
           in
           Some
             { inst;
               inst_name = record.Hb_netlist.Design.inst_name;
               slack = !worst;
               input_ready;
               output_required;
             }
         end
         else None)
  in
  let insts = Array.of_list (Hb_netlist.Design.comb_instances design) in
  let count = Array.length insts in
  let jobs = Stdlib.min ctx.Context.config.Config.parallel_jobs count in
  let examined =
    if jobs <= 1 || count <= 1 then Array.map examine insts
    else
      Hb_util.Pool.map (Hb_util.Pool.shared ~jobs) ~count (fun i ->
          examine insts.(i))
  in
  let constraints = List.filter_map Fun.id (Array.to_list examined) in
  List.sort (fun a b -> compare a.slack b.slack) constraints
