type status =
  | Meets_timing
  | Slow_paths

let c_relaxation_iterations =
  Hb_util.Telemetry.counter "algorithm1.relaxation_iterations"
let c_complete_forward =
  Hb_util.Telemetry.counter "algorithm1.complete_forward_transfers"
let c_complete_backward =
  Hb_util.Telemetry.counter "algorithm1.complete_backward_transfers"
let c_partial_forward =
  Hb_util.Telemetry.counter "algorithm1.partial_forward_transfers"
let c_partial_backward =
  Hb_util.Telemetry.counter "algorithm1.partial_backward_transfers"

type outcome = {
  status : status;
  final : Slacks.t;
  forward_cycles : int;
  backward_cycles : int;
  capped : bool;
}

type direction = Forward | Backward

(* Transfer steps run in two flat passes over a structure-of-arrays
   amounts buffer: a gather pass folding the slack snapshot's element
   arrays against the headrooms, then the apply pass of
   [Hb_sync.Element.shift_all] issuing the shifts. [divisor] is [None]
   for complete transfers and [Some n] for partial ones. The gather pass
   reads the elements' cached offsets and writes out the [Hb_util.Time]
   helpers, so neither pass boxes a float per element. *)
let gather_amounts (ctx : Context.t) (slacks : Slacks.t) direction ~divisor
    ~amounts =
  let all = ctx.Context.elements.Elements.all in
  let slack_of =
    match direction with
    | Forward -> slacks.Slacks.element_input_slack
    | Backward -> slacks.Slacks.element_output_slack
  in
  for e = 0 to Array.length all - 1 do
    let offsets = all.(e).Hb_sync.Element.offsets in
    let headroom =
      match direction with
      | Forward -> offsets.Hb_sync.Element.forward_headroom
      | Backward -> offsets.Hb_sync.Element.backward_headroom
    in
    let slack =
      match divisor with
      | None -> slack_of.(e)
      | Some n -> slack_of.(e) /. n
    in
    (* Hb_util.Time.min slack headroom *)
    amounts.(e) <- (if slack <= headroom then slack else headroom)
  done

let apply_amounts (ctx : Context.t) direction ~amounts =
  Hb_sync.Element.shift_all ctx.Context.elements.Elements.all amounts
    ~forward:(match direction with Forward -> true | Backward -> false)

(* One complete slack-transfer step across every synchronising element,
   from a single slack snapshot. Returns whether any offset moved. *)
let complete_transfer_into (ctx : Context.t) slacks direction ~amounts =
  Hb_util.Telemetry.incr
    (match direction with
     | Forward -> c_complete_forward
     | Backward -> c_complete_backward);
  gather_amounts ctx slacks direction ~divisor:None ~amounts;
  apply_amounts ctx direction ~amounts

let complete_transfer (ctx : Context.t) slacks direction =
  let amounts = Array.make (Elements.count ctx.Context.elements) 0.0 in
  complete_transfer_into ctx slacks direction ~amounts

(* Partial transfer: move slack/n instead of all of it. *)
let partial_transfer_into (ctx : Context.t) slacks direction ~amounts =
  Hb_util.Telemetry.incr
    (match direction with
     | Forward -> c_partial_forward
     | Backward -> c_partial_backward);
  let divisor = ctx.Context.config.Config.partial_transfer_divisor in
  let divisor = if divisor > 1.0 then divisor else 2.0 in
  gather_amounts ctx slacks direction ~divisor:(Some divisor) ~amounts;
  ignore (apply_amounts ctx direction ~amounts : bool)

let transfer_step ctx direction =
  let slacks = Slacks.compute ctx in
  let direction = match direction with `Forward -> Forward | `Backward -> Backward in
  complete_transfer ctx slacks direction

let run (ctx : Context.t) =
  let cap = ctx.Context.config.Config.max_transfer_iterations in
  let capped = ref false in
  (* Intermediate snapshots are element-only (and macro-level when
     configured), written into two slack buffers per run; a loop exits
     through one full compute, which the cluster cache serves without
     re-evaluating anything, so the outcome's [final] carries the
     net-level data paths and reports need. *)
  let element_count = Elements.count ctx.Context.elements in
  let amounts = Array.make element_count 0.0 in
  let input_slack = Array.make element_count 0.0 in
  let output_slack = Array.make element_count 0.0 in
  let snapshot () = Slacks.compute_transfer ctx ~input_slack ~output_slack in
  (* Iterations 1 and 2: complete transfers to a fixed point; each returns
     [Some slacks] when every slack went strictly positive on the way. *)
  let complete_phase direction =
    let cycles = ref 0 in
    let rec loop () =
      Hb_util.Timeout.check ();
      let slacks = snapshot () in
      if Slacks.all_positive slacks then (Some (Slacks.compute ctx), !cycles)
      else if !cycles >= cap then begin
        capped := true;
        (None, !cycles)
      end
      else begin
        incr cycles;
        Hb_util.Telemetry.incr c_relaxation_iterations;
        if complete_transfer_into ctx slacks direction ~amounts then loop ()
        else (None, !cycles)
      end
    in
    loop ()
  in
  let finish status final forward_cycles backward_cycles =
    { status; final; forward_cycles; backward_cycles; capped = !capped }
  in
  match complete_phase Forward with
  | Some final, forward_cycles -> finish Meets_timing final forward_cycles 0
  | None, forward_cycles ->
    (match complete_phase Backward with
     | Some final, backward_cycles ->
       finish Meets_timing final forward_cycles backward_cycles
     | None, backward_cycles ->
       (* Iterations 3 and 4: partial transfers, once per complete cycle
          made in the opposite direction. *)
       for _ = 1 to backward_cycles do
         Hb_util.Timeout.check ();
         Hb_util.Telemetry.incr c_relaxation_iterations;
         partial_transfer_into ctx (snapshot ()) Forward ~amounts
       done;
       for _ = 1 to forward_cycles do
         Hb_util.Timeout.check ();
         Hb_util.Telemetry.incr c_relaxation_iterations;
         partial_transfer_into ctx (snapshot ()) Backward ~amounts
       done;
       let final = Slacks.compute ctx in
       let status =
         if Slacks.all_positive final then Meets_timing else Slow_paths
       in
       finish status final forward_cycles backward_cycles)
