type verdict = {
  status : [ `Meets_timing | `Slow_paths ];
  worst_slack : Hb_util.Time.t;
  element_input_slack : Hb_util.Time.t array;
  element_output_slack : Hb_util.Time.t array;
  paths_walked : int;
  truncated : bool;
}

exception Budget_exhausted

(* One flat timing arc, re-derived from the design independently of the
   cluster builder. Delay arithmetic must match Cluster.extract exactly
   (dmax = max rise fall of the provider's estimate) so any divergence
   found downstream is the engine's, not the oracle's. *)
type flat_arc = {
  to_net : int;
  dmax : Hb_util.Time.t;
  inst : int;
}

let flat_arcs ~(design : Hb_netlist.Design.t) ~(delays : Delays.t) =
  let succ = Array.make (Hb_netlist.Design.net_count design) [] in
  List.iter
    (fun inst ->
       let record = Hb_netlist.Design.instance design inst in
       let cell = record.Hb_netlist.Design.cell in
       List.iter
         (fun out_pin ->
            let out_name = out_pin.Hb_cell.Cell.pin_name in
            match Hb_netlist.Design.net_of_pin design ~inst ~pin:out_name with
            | None -> ()
            | Some out_net ->
              List.iter
                (fun (cell_arc : Hb_cell.Cell.timing_arc) ->
                   match
                     Hb_netlist.Design.net_of_pin design ~inst
                       ~pin:cell_arc.Hb_cell.Cell.from_pin
                   with
                   | None -> ()
                   | Some in_net ->
                     let rise, fall =
                       delays.Delays.evaluate ~design ~inst ~arc:cell_arc
                         ~out_net
                     in
                     succ.(in_net) <-
                       { to_net = out_net; dmax = Hb_util.Time.max rise fall;
                         inst }
                       :: succ.(in_net))
                (Hb_cell.Cell.arcs_to cell ~output:out_name))
         (Hb_cell.Cell.output_pins cell))
    (Hb_netlist.Design.comb_instances design);
  (* Cluster.extract conses per cluster and reverses, so its arc order is
     instance order; mirror that for a faithful left-to-right tie story
     (slacks are min-folded, so order only matters for readability). *)
  Array.map List.rev succ

let evaluate ?(delays = Delays.lumped) ?(max_paths = 2_000_000)
    (ctx : Context.t) =
  let design = ctx.Context.design in
  let elements = ctx.Context.elements in
  let passes = ctx.Context.passes in
  let count = Elements.count elements in
  let succ = flat_arcs ~design ~delays in
  let element_input_slack = Array.make count Hb_util.Time.infinity in
  let element_output_slack = Array.make count Hb_util.Time.infinity in
  (* Deadlines: endpoint e constrains its read net in exactly the pass
     (cut) its output terminal was assigned to. *)
  let deadlines = Array.make (Hb_netlist.Design.net_count design) [] in
  let cuts = Hashtbl.create 8 in
  for e = 0 to count - 1 do
    match elements.Elements.reads.(e) with
    | None -> ()
    | Some net ->
      let cut = passes.Passes.endpoint_cut.(e) in
      if cut >= 0 then begin
        Hashtbl.replace cuts cut ();
        match Block.closure_time passes (Elements.element elements e) ~cut with
        | None -> ()
        | Some closure -> deadlines.(net) <- (e, cut, closure) :: deadlines.(net)
      end
  done;
  let paths = ref 0 in
  let truncated = ref false in
  let note slacks e slack = if slack < slacks.(e) then slacks.(e) <- slack in
  (* Walk every path from one asserted source terminal, accumulating the
     arrival as a strict left-to-right fold — the textbook longest-path
     arithmetic, deliberately different from the engine's source-tagged
     (base, acc) pairs. *)
  let examine ~cut =
    let rec walk source net arrival =
      List.iter
        (fun (endpoint, ecut, closure) ->
           if ecut = cut then begin
             incr paths;
             if !paths > max_paths then raise Budget_exhausted;
             let slack = closure -. arrival in
             note element_input_slack endpoint slack;
             note element_output_slack source slack
           end)
        deadlines.(net);
      List.iter
        (fun arc -> walk source arc.to_net (arrival +. arc.dmax))
        succ.(net)
    in
    for e = 0 to count - 1 do
      match Block.assertion_time passes (Elements.element elements e) ~cut with
      | None -> ()
      | Some t -> List.iter (fun net -> walk e net t) elements.Elements.drives.(e)
    done
  in
  (try Hashtbl.iter (fun cut () -> examine ~cut) cuts
   with Budget_exhausted -> truncated := true);
  let worst = ref Hb_util.Time.infinity in
  let positive = ref true in
  let fold slack =
    if Hb_util.Time.is_finite slack then begin
      if slack < !worst then worst := slack;
      if Hb_util.Time.le slack 0.0 then positive := false
    end
  in
  Array.iter fold element_input_slack;
  Array.iter fold element_output_slack;
  { status = (if !positive then `Meets_timing else `Slow_paths);
    worst_slack = !worst;
    element_input_slack;
    element_output_slack;
    paths_walked = !paths;
    truncated = !truncated;
  }

type graph = {
  ctx : Context.t;
  succ : flat_arc list array;  (* per net: arcs out of it *)
  pred : int list array;       (* per net: source nets of arcs into it *)
}

let graph ?(delays = Delays.lumped) (ctx : Context.t) =
  let succ = flat_arcs ~design:ctx.Context.design ~delays in
  let pred = Array.make (Array.length succ) [] in
  Array.iteri
    (fun net arcs ->
       List.iter (fun arc -> pred.(arc.to_net) <- net :: pred.(arc.to_net))
         arcs)
    succ;
  { ctx; succ; pred }

let paths ?(max_paths = 1_000_000) { ctx; succ; pred } ~endpoint =
  let elements = ctx.Context.elements in
  let passes = ctx.Context.passes in
  let cut = passes.Passes.endpoint_cut.(endpoint) in
  match elements.Elements.reads.(endpoint) with
  | None -> []
  | Some _ when cut < 0 -> []
  | Some end_net ->
    match Block.closure_time passes (Elements.element elements endpoint) ~cut with
    | None -> []
    | Some closure ->
      (* Reverse mark: the nets from which [end_net] can be reached. *)
      let reaches = Array.make (Array.length succ) false in
      let rec mark net =
        if not reaches.(net) then begin
          reaches.(net) <- true;
          List.iter mark pred.(net)
        end
      in
      mark end_net;
      let cluster = ctx.Context.table.Cluster.cluster_of_net.(end_net) in
      let found = ref [] in
      let count = ref 0 in
      let rec walk start_element net arrival hops =
        if net = end_net then begin
          incr count;
          if !count > max_paths then raise Budget_exhausted;
          found :=
            { Paths.start_element; end_element = endpoint; cluster; cut;
              slack = closure -. arrival; hops = List.rev hops }
            :: !found
        end
        else
          List.iter
            (fun arc ->
               if reaches.(arc.to_net) then begin
                 let at = arrival +. arc.dmax in
                 walk start_element arc.to_net at
                   ({ Paths.net = arc.to_net; via = Some arc.inst; at } :: hops)
               end)
            succ.(net)
      in
      for e = 0 to Elements.count elements - 1 do
        match Block.assertion_time passes (Elements.element elements e) ~cut with
        | None -> ()
        | Some t ->
          List.iter
            (fun net ->
               if reaches.(net) then
                 walk e net t [ { Paths.net; via = None; at = t } ])
            elements.Elements.drives.(e)
      done;
      List.stable_sort
        (fun (a : Paths.path) (b : Paths.path) ->
           Float.compare a.Paths.slack b.Paths.slack)
        !found
