type params = {
  seed : int64;
  falsey : bool;
  phases : int;
  registers : int;
  gates : int;
  inputs : int;
  outputs : int;
  period : float;
  annotations : int;
  mutations : int;
}

let params_of_seed seed =
  let rng = Hb_util.Rng.create seed in
  let falsey = Hb_util.Rng.int rng 8 = 0 in
  let phases = 1 + Hb_util.Rng.int rng 4 in
  let registers = 4 + Hb_util.Rng.int rng 9 in
  let gates = 20 + Hb_util.Rng.int rng 61 in
  let inputs = 2 + Hb_util.Rng.int rng 4 in
  let outputs = 1 + Hb_util.Rng.int rng 3 in
  let period = 40.0 +. 10.0 *. float_of_int (Hb_util.Rng.int rng 9) in
  let annotations = Hb_util.Rng.int rng 5 in
  let mutations = 2 + Hb_util.Rng.int rng 4 in
  { seed; falsey; phases; registers; gates; inputs; outputs; period;
    annotations; mutations }

(* Streams that must stay independent of each other (so a tweak to one
   consumer never reshuffles another) hash the seed with a distinct
   label. *)
let labelled_rng params label =
  Hb_util.Rng.create (Int64.add params.seed (Int64.of_int (Hashtbl.hash label)))

let comb_instance_names design =
  Array.of_list
    (List.map
       (fun inst ->
          (Hb_netlist.Design.instance design inst).Hb_netlist.Design.inst_name)
       (Hb_netlist.Design.comb_instances design))

let random_annotation params design =
  let names = comb_instance_names design in
  if Array.length names = 0 || params.annotations = 0 then
    Hb_sta.Annotation.empty
  else begin
    let rng = labelled_rng params "annotation" in
    let entries =
      List.init params.annotations (fun _ ->
          let name = Hb_util.Rng.choose rng names in
          let entry =
            if Hb_util.Rng.bool rng then
              Hb_sta.Annotation.Scaled (0.6 +. Hb_util.Rng.float rng 1.2)
            else
              Hb_sta.Annotation.Fixed
                { rise = 0.05 +. Hb_util.Rng.float rng 1.45;
                  fall = 0.05 +. Hb_util.Rng.float rng 1.45;
                }
          in
          (name, entry))
    in
    Hb_sta.Annotation.of_entries entries
  end

let design_of_params params =
  let design, system =
    if params.falsey then begin
      let design, system, _capture =
        Falsey.conflict_chain ~period:params.period
          ~head:(1 + (params.gates mod 5))
          ~tail:(1 + (params.registers mod 4))
          ()
      in
      (design, system)
    end
    else
      Soup.random ~seed:params.seed ~phases:params.phases
        ~registers:params.registers ~gates:params.gates ~inputs:params.inputs
        ~outputs:params.outputs ~period:params.period ()
  in
  (design, system, random_annotation params design)

(* ------------------------------------------------------------------ *)
(* Failures                                                           *)
(* ------------------------------------------------------------------ *)

type failure = {
  params : params;
  check : string;
  detail : string;
}

let repro_command f =
  Printf.sprintf "hummingbird validate --skip-golden --fuzz-seed 0x%Lx"
    f.params.seed

let params_json p =
  Hb_util.Json.Obj
    [ ("seed", Hb_util.Json.String (Printf.sprintf "0x%Lx" p.seed));
      ("falsey", Hb_util.Json.Bool p.falsey);
      ("phases", Hb_util.Json.Number (float_of_int p.phases));
      ("registers", Hb_util.Json.Number (float_of_int p.registers));
      ("gates", Hb_util.Json.Number (float_of_int p.gates));
      ("inputs", Hb_util.Json.Number (float_of_int p.inputs));
      ("outputs", Hb_util.Json.Number (float_of_int p.outputs));
      ("period", Hb_util.Json.Number p.period);
      ("annotations", Hb_util.Json.Number (float_of_int p.annotations));
      ("mutations", Hb_util.Json.Number (float_of_int p.mutations));
    ]

let failure_json f =
  Hb_util.Json.Obj
    [ ("check", Hb_util.Json.String f.check);
      ("detail", Hb_util.Json.String f.detail);
      ("params", params_json f.params);
      ("repro", Hb_util.Json.String (repro_command f));
    ]

(* ------------------------------------------------------------------ *)
(* Comparison helpers                                                 *)
(* ------------------------------------------------------------------ *)

let hex f = Printf.sprintf "%h" f

let feq a b = Float.compare a b = 0

(* First divergence between two slack pictures, bit-exact. *)
let diff_slacks label (a : Hb_sta.Slacks.t) (b : Hb_sta.Slacks.t) =
  let check_array name xs ys =
    if Array.length xs <> Array.length ys then
      Some
        (Printf.sprintf "%s.%s: length %d vs %d" label name (Array.length xs)
           (Array.length ys))
    else begin
      let found = ref None in
      Array.iteri
        (fun i x ->
           if !found = None && not (feq x ys.(i)) then
             found :=
               Some
                 (Printf.sprintf "%s.%s[%d]: %s vs %s" label name i (hex x)
                    (hex ys.(i))))
        xs;
      !found
    end
  in
  if not (feq a.Hb_sta.Slacks.worst b.Hb_sta.Slacks.worst) then
    Some
      (Printf.sprintf "%s.worst: %s vs %s" label (hex a.Hb_sta.Slacks.worst)
         (hex b.Hb_sta.Slacks.worst))
  else
    match
      check_array "element_input_slack" a.Hb_sta.Slacks.element_input_slack
        b.Hb_sta.Slacks.element_input_slack
    with
    | Some _ as d -> d
    | None ->
      (match
         check_array "element_output_slack" a.Hb_sta.Slacks.element_output_slack
           b.Hb_sta.Slacks.element_output_slack
       with
       | Some _ as d -> d
       | None ->
         if Array.length a.Hb_sta.Slacks.net_slack > 0
         && Array.length b.Hb_sta.Slacks.net_slack > 0 then
           check_array "net_slack" a.Hb_sta.Slacks.net_slack
             b.Hb_sta.Slacks.net_slack
         else None)

(* First divergence between two hold-violation lists: element, label,
   margin bits and order. *)
let diff_hold label (a : Hb_sta.Holdcheck.violation list)
    (b : Hb_sta.Holdcheck.violation list) =
  let rec first i a b =
    match a, b with
    | [], [] -> None
    | x :: a', y :: b' ->
      if x.Hb_sta.Holdcheck.element = y.Hb_sta.Holdcheck.element
      && String.equal x.Hb_sta.Holdcheck.label y.Hb_sta.Holdcheck.label
      && feq x.Hb_sta.Holdcheck.margin y.Hb_sta.Holdcheck.margin
      then first (i + 1) a' b'
      else
        Some
          (Printf.sprintf "%s.hold[%d]: %s %s vs %s %s" label i
             x.Hb_sta.Holdcheck.label (hex x.Hb_sta.Holdcheck.margin)
             y.Hb_sta.Holdcheck.label (hex y.Hb_sta.Holdcheck.margin))
    | _ ->
      Some
        (Printf.sprintf "%s.hold: %d vs %d violations" label (List.length a)
           (List.length b))
  in
  first 0 a b

let diff_outcomes label (a : Hb_sta.Algorithm1.outcome)
    (b : Hb_sta.Algorithm1.outcome) =
  if a.Hb_sta.Algorithm1.status <> b.Hb_sta.Algorithm1.status then
    Some (Printf.sprintf "%s.status differs" label)
  else if a.Hb_sta.Algorithm1.forward_cycles <> b.Hb_sta.Algorithm1.forward_cycles
  then
    Some
      (Printf.sprintf "%s.forward_cycles: %d vs %d" label
         a.Hb_sta.Algorithm1.forward_cycles b.Hb_sta.Algorithm1.forward_cycles)
  else if
    a.Hb_sta.Algorithm1.backward_cycles <> b.Hb_sta.Algorithm1.backward_cycles
  then
    Some
      (Printf.sprintf "%s.backward_cycles: %d vs %d" label
         a.Hb_sta.Algorithm1.backward_cycles b.Hb_sta.Algorithm1.backward_cycles)
  else if a.Hb_sta.Algorithm1.capped <> b.Hb_sta.Algorithm1.capped then
    Some (Printf.sprintf "%s.capped differs" label)
  else
    diff_slacks label a.Hb_sta.Algorithm1.final b.Hb_sta.Algorithm1.final

(* ------------------------------------------------------------------ *)
(* The differential checks                                            *)
(* ------------------------------------------------------------------ *)

let analyse ~design ~system ~config ~delays =
  Hb_sta.Engine.analyse ~design ~system ~config ~delays
    ~generate_constraints:false ()

(* The outcomes, then the hold-violation lists, of two reports. *)
let diff_reports label (a : Hb_sta.Engine.report) (b : Hb_sta.Engine.report) =
  match diff_outcomes label a.Hb_sta.Engine.outcome b.Hb_sta.Engine.outcome with
  | Some _ as d -> d
  | None ->
    diff_hold label a.Hb_sta.Engine.hold_violations
      b.Hb_sta.Engine.hold_violations

(* Incremental + parallel vs sequential from-scratch. *)
let check_engine_parity ~design ~system ~delays =
  let fast = analyse ~design ~system ~config:Hb_sta.Config.default ~delays in
  let slow = analyse ~design ~system ~config:Hb_sta.Config.sequential ~delays in
  (fast, diff_reports "incremental-vs-sequential" fast slow)

(* Timing-macro relaxation vs flat. *)
let check_macro_parity ~design ~system ~delays (flat : Hb_sta.Engine.report) =
  let config = { Hb_sta.Config.default with Hb_sta.Config.macro = true } in
  let macro = analyse ~design ~system ~config ~delays in
  diff_reports "macro-vs-flat" macro flat

(* A session surviving a random mutation script vs a fresh engine on the
   equivalently annotated design. *)
let check_session_parity params ~design ~system ~delays =
  let names = comb_instance_names design in
  if Array.length names = 0 then None
  else begin
    let rng = labelled_rng params "mutations" in
    let session =
      Hb_sta.Session.create ~design ~system ~config:Hb_sta.Config.default
        ~delays ()
    in
    let finals : (string, Hb_sta.Annotation.entry) Hashtbl.t =
      Hashtbl.create 8
    in
    let final_report =
      Fun.protect
        ~finally:(fun () -> Hb_sta.Session.close session)
        (fun () ->
           for _ = 1 to params.mutations do
             let instance = Hb_util.Rng.choose rng names in
             let edit, entry =
               if Hb_util.Rng.bool rng then begin
                 let factor = 0.5 +. Hb_util.Rng.float rng 1.5 in
                 ( Hb_sta.Edit.Scale_delay { instance; factor },
                   Hb_sta.Annotation.Scaled factor )
               end
               else begin
                 let rise = 0.05 +. Hb_util.Rng.float rng 1.95 in
                 let fall = 0.05 +. Hb_util.Rng.float rng 1.95 in
                 ( Hb_sta.Edit.Set_delay { instance; rise; fall },
                   Hb_sta.Annotation.Fixed { rise; fall } )
               end
             in
             let _ : Hb_sta.Session.apply_result =
               Hb_sta.Session.apply session [ edit ]
             in
             Hashtbl.replace finals instance entry;
             (* Query between mutations so the incremental invalidation
                path is exercised at every step, not just once. *)
             ignore
               (Hb_sta.Session.analyse ~generate_constraints:false session)
           done;
           Hb_sta.Session.analyse ~generate_constraints:false session)
    in
    let equivalent =
      Hb_sta.Annotation.of_entries
        (Hashtbl.fold (fun name entry acc -> (name, entry) :: acc) finals [])
    in
    let fresh =
      analyse ~design ~system ~config:Hb_sta.Config.default
        ~delays:(Hb_sta.Annotation.apply equivalent ~base:delays)
    in
    diff_reports "session-vs-fresh" final_report fresh
  end

(* k-worst enumerator vs the exhaustive reference walk, on the worst
   endpoints of the settled analysis. *)
let check_path_parity ~delays (report : Hb_sta.Engine.report) =
  let ctx = report.Hb_sta.Engine.context in
  let slacks = report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final in
  let endpoints = Hb_sta.Paths.worst_endpoints slacks ~limit:3 in
  let limit = 5 in
  let graph = Hb_sta.Reference.graph ~delays ctx in
  List.fold_left
    (fun acc (endpoint, _) ->
       match acc with
       | Some _ -> acc
       | None ->
         (match
            Hb_sta.Reference.paths ~max_paths:200_000 graph ~endpoint
          with
          | exception Hb_sta.Reference.Budget_exhausted -> None
          | exhaustive ->
            let enumerated = Hb_sta.Paths.enumerate ctx ~endpoint ~limit in
            if List.length enumerated
               <> Stdlib.min limit (List.length exhaustive)
            then
              Some
                (Printf.sprintf
                   "k-worst: endpoint %d returned %d paths, exhaustive has %d"
                   endpoint (List.length enumerated) (List.length exhaustive))
            else begin
              let found = ref None in
              List.iteri
                (fun rank (p : Hb_sta.Paths.path) ->
                   if !found = None then begin
                     let q = List.nth exhaustive rank in
                     if not (feq p.Hb_sta.Paths.slack q.Hb_sta.Paths.slack) then
                       found :=
                         Some
                           (Printf.sprintf
                              "k-worst: endpoint %d rank %d slack %s vs \
                               exhaustive %s"
                              endpoint rank (hex p.Hb_sta.Paths.slack)
                              (hex q.Hb_sta.Paths.slack))
                   end)
                enumerated;
              !found
            end))
    None endpoints

(* The naive flat-graph oracle vs the engine's settled slacks. The two
   fold path delays in different orders, so agreement is within an
   absolute tolerance, and the verdict is only compared away from the
   epsilon decision boundary. *)
let reference_tolerance = 1e-6

let check_reference ~delays (report : Hb_sta.Engine.report) =
  let ctx = report.Hb_sta.Engine.context in
  let slacks = report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final in
  let verdict = Hb_sta.Reference.evaluate ~delays ctx in
  if verdict.Hb_sta.Reference.truncated then None
  else begin
    let close a b =
      (feq a b)
      || (Hb_util.Time.is_finite a && Hb_util.Time.is_finite b
          && Float.abs (a -. b) <= reference_tolerance)
    in
    let check_array name engine oracle =
      let found = ref None in
      Array.iteri
        (fun i x ->
           if !found = None && not (close x oracle.(i)) then
             found :=
               Some
                 (Printf.sprintf "reference: %s[%d] engine %s vs oracle %s" name
                    i (hex x) (hex oracle.(i))))
        engine;
      !found
    in
    if not (close slacks.Hb_sta.Slacks.worst verdict.Hb_sta.Reference.worst_slack)
    then
      Some
        (Printf.sprintf "reference: worst engine %s vs oracle %s"
           (hex slacks.Hb_sta.Slacks.worst)
           (hex verdict.Hb_sta.Reference.worst_slack))
    else
      match
        check_array "element_input_slack"
          slacks.Hb_sta.Slacks.element_input_slack
          verdict.Hb_sta.Reference.element_input_slack
      with
      | Some _ as d -> d
      | None ->
        (match
           check_array "element_output_slack"
             slacks.Hb_sta.Slacks.element_output_slack
             verdict.Hb_sta.Reference.element_output_slack
         with
         | Some _ as d -> d
         | None ->
           let engine_status =
             if Hb_sta.Slacks.all_positive slacks then `Meets_timing
             else `Slow_paths
           in
           if
             Float.abs slacks.Hb_sta.Slacks.worst > reference_tolerance
             && engine_status <> verdict.Hb_sta.Reference.status
           then Some "reference: status differs away from the eps boundary"
           else None)
  end

(* A session surviving a random structural ECO script vs a fresh engine
   preprocessing the edited design from scratch, in two phases. The
   first applies single edits (buffer insertion, gate resizing, gate
   removal through [Session.apply]); the second, on an RNG of its own,
   applies batches of 1-4 commands that also rewire input pins onto
   random nets, so cluster splits, merges and the renumbering they cause
   meet several edits at once. Each phase analyses between steps and
   ends with the comparison. Candidate edits are speculative: the ones
   the session rejects (control cones, nets without a combinational
   driver, incompatible cells, tombstoned targets, cycles...) must leave
   it untouched, so a buggy rejection path also shows up as a
   divergence. The flat-graph oracle then re-checks the edited design
   from first principles — see [check_reference]. *)
let check_structural_parity params ~design ~system ~delays =
  let library = Hb_cell.Library.default () in
  let comb_cells =
    List.filter
      (fun (c : Hb_cell.Cell.t) -> Hb_cell.Kind.is_comb c.Hb_cell.Cell.kind)
      (Hb_cell.Library.cells library)
  in
  let buffers =
    Array.of_list
      (List.filter
         (fun c ->
            match
              ( Hb_cell.Cell.input_pins c,
                Hb_cell.Cell.output_pins c,
                Hb_cell.Cell.control_pins c )
            with
            | [ _ ], [ _ ], [] -> true
            | _ -> false)
         comb_cells)
  in
  (* Resize candidates, grouped by exact pin signature so every generated
     [Resize_gate] is pin-compatible by construction. *)
  let signature (c : Hb_cell.Cell.t) =
    List.sort compare
      (List.map
         (fun (p : Hb_cell.Cell.pin) -> (p.Hb_cell.Cell.pin_name, p.Hb_cell.Cell.role))
         c.Hb_cell.Cell.pins)
  in
  let by_signature = Hashtbl.create 16 in
  List.iter
    (fun c ->
       let key = signature c in
       Hashtbl.replace by_signature key
         (c :: Option.value ~default:[] (Hashtbl.find_opt by_signature key)))
    comb_cells;
  if Array.length (comb_instance_names design) = 0 || Array.length buffers = 0
  then None
  else begin
    let rng = labelled_rng params "structural" in
    let session =
      Hb_sta.Session.create ~design ~system ~config:Hb_sta.Config.default
        ~delays ()
    in
    Fun.protect
      ~finally:(fun () -> Hb_sta.Session.close session)
      (fun () ->
         let random_buffer rng current =
           let net =
             Hb_netlist.Design.net current
               (Hb_util.Rng.int rng (Hb_netlist.Design.net_count current))
           in
           Hb_sta.Edit.Insert_buffer
             { net = net.Hb_netlist.Design.net_name;
               cell = Hb_util.Rng.choose rng buffers;
               inst_name = None;
               net_name = None;
             }
         in
         let random_comb rng current =
           match Array.of_list (Hb_netlist.Design.comb_instances current) with
           | [||] -> None
           | insts ->
             Some (Hb_netlist.Design.instance current
                     (Hb_util.Rng.choose rng insts))
         in
         let random_edit rng current kind =
           match kind with
           | 0 -> random_buffer rng current
           | 1 ->
             (match random_comb rng current with
              | None -> random_buffer rng current
              | Some inst ->
                let replacements =
                  List.filter
                    (fun (c : Hb_cell.Cell.t) ->
                       c.Hb_cell.Cell.name
                       <> inst.Hb_netlist.Design.cell.Hb_cell.Cell.name)
                    (Option.value ~default:[]
                       (Hashtbl.find_opt by_signature
                          (signature inst.Hb_netlist.Design.cell)))
                in
                (match replacements with
                 | [] -> random_buffer rng current
                 | _ :: _ ->
                   Hb_sta.Edit.Resize_gate
                     { instance = inst.Hb_netlist.Design.inst_name;
                       cell =
                         Hb_util.Rng.choose rng (Array.of_list replacements);
                     }))
           | _ ->
             (match random_comb rng current with
              | None -> random_buffer rng current
              | Some inst ->
                Hb_sta.Edit.Remove_gate
                  { instance = inst.Hb_netlist.Design.inst_name })
         in
         (* A connected input pin of a random gate, moved onto a random
            net. *)
         let random_rewire rng current =
           match random_comb rng current with
           | None -> random_buffer rng current
           | Some inst ->
             let pins =
               List.filter
                 (fun (p : Hb_cell.Cell.pin) ->
                    p.Hb_cell.Cell.role <> Hb_cell.Cell.Data_out
                    && List.mem_assoc p.Hb_cell.Cell.pin_name
                         inst.Hb_netlist.Design.connections)
                 inst.Hb_netlist.Design.cell.Hb_cell.Cell.pins
             in
             (match pins with
              | [] -> random_buffer rng current
              | _ :: _ ->
                let pin = Hb_util.Rng.choose rng (Array.of_list pins) in
                let net =
                  Hb_netlist.Design.net current
                    (Hb_util.Rng.int rng (Hb_netlist.Design.net_count current))
                in
                Hb_sta.Edit.Rewire_net
                  { instance = inst.Hb_netlist.Design.inst_name;
                    pin = pin.Hb_cell.Cell.pin_name;
                    net = net.Hb_netlist.Design.net_name;
                  })
         in
         let current () =
           (Hb_sta.Session.context session).Hb_sta.Context.design
         in
         let step batch =
           match Hb_sta.Session.apply_r session batch with
           | Error _ -> ()
           | Ok _ ->
             (* Query between edits so every step exercises the carried
                caches, not just the last one. *)
             ignore
               (Hb_sta.Session.analyse ~generate_constraints:false session)
         in
         let versus_fresh label =
           let final =
             Hb_sta.Session.analyse ~generate_constraints:false session
           in
           let fresh =
             analyse ~design:(current ()) ~system
               ~config:Hb_sta.Config.default ~delays
           in
           match diff_reports label final fresh with
           | Some _ as d -> d
           | None -> check_reference ~delays fresh
         in
         for _ = 1 to params.mutations do
           let current = current () in
           step [ random_edit rng current (Hb_util.Rng.int rng 3) ]
         done;
         match versus_fresh "structural-session-vs-fresh" with
         | Some _ as d -> d
         | None ->
           let rng = labelled_rng params "structural-batches" in
           for _ = 1 to params.mutations do
             let current = current () in
             step
               (List.init (1 + Hb_util.Rng.int rng 4) (fun _ ->
                    match Hb_util.Rng.int rng 4 with
                    | 3 -> random_rewire rng current
                    | kind -> random_edit rng current kind))
           done;
           versus_fresh "structural-batches-vs-fresh")
  end

(* Targeted invalidation after an in-place delay edit vs a forced full
   recompute. [inject] drops one touched cluster from the invalidation
   set — the off-by-one this check exists to catch. *)
let check_cache_coherence ?(inject = false) params ~design ~system ~delays =
  let insts = Array.of_list (Hb_netlist.Design.comb_instances design) in
  if Array.length insts = 0 then None
  else begin
    let rng = labelled_rng params "coherence" in
    let target = Hb_util.Rng.choose rng insts in
    let factor = 2.0 +. Hb_util.Rng.float rng 2.0 in
    let ctx =
      Hb_sta.Context.make ~design ~system ~config:Hb_sta.Config.default ~delays
        ()
    in
    ignore (Hb_sta.Algorithm1.run ctx);
    (* Settle the cache at the final offsets. *)
    ignore (Hb_sta.Slacks.compute ctx);
    let scaled =
      { Hb_sta.Delays.name = "fuzz-coherence";
        Hb_sta.Delays.evaluate =
          (fun ~design ~inst ~arc ~out_net ->
             let rise, fall =
               delays.Hb_sta.Delays.evaluate ~design ~inst ~arc ~out_net
             in
             if inst = target then (rise *. factor, fall *. factor)
             else (rise, fall));
      }
    in
    let touched =
      Hb_sta.Cluster.refresh_instance_delays ctx.Hb_sta.Context.table ~design
        ~insts:[ target ] ~delays:scaled ()
    in
    if touched = [] then None
    else begin
      let invalidated = if inject then List.tl touched else touched in
      Hb_sta.Context.invalidate_clusters ctx invalidated;
      let incremental = Hb_sta.Slacks.compute ctx in
      let fresh = Hb_sta.Slacks.compute ~force:true ctx in
      diff_slacks "cache-coherence" incremental fresh
    end
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let run_seed ?(inject = false) seed =
  let params = params_of_seed seed in
  let design, system, annotation = design_of_params params in
  let delays = Hb_sta.Annotation.apply annotation ~base:Hb_sta.Delays.lumped in
  let failures = ref [] in
  let record check = function
    | None -> ()
    | Some detail -> failures := { params; check; detail } :: !failures
  in
  let flat, engine_diff = check_engine_parity ~design ~system ~delays in
  record "engine-parity" engine_diff;
  record "macro-parity" (check_macro_parity ~design ~system ~delays flat);
  record "session-parity" (check_session_parity params ~design ~system ~delays);
  record "structural-parity"
    (check_structural_parity params ~design ~system ~delays);
  record "path-parity" (check_path_parity ~delays flat);
  record "reference" (check_reference ~delays flat);
  (* Last: it rewrites the context's arc tables in place. *)
  record "cache-coherence"
    (check_cache_coherence ~inject params ~design ~system ~delays);
  List.rev !failures

type outcome = {
  seeds_run : int;
  failures : failure list;
}

let run ?(inject = false) ?budget_seconds ?(on_failure = fun _ -> ()) seeds =
  let started = Unix.gettimeofday () in
  let within_budget () =
    match budget_seconds with
    | None -> true
    | Some budget -> Unix.gettimeofday () -. started < budget
  in
  let seeds_run = ref 0 in
  let failures = ref [] in
  List.iter
    (fun seed ->
       if within_budget () then begin
         incr seeds_run;
         let found = run_seed ~inject seed in
         List.iter on_failure found;
         failures := List.rev_append found !failures
       end)
    seeds;
  { seeds_run = !seeds_run; failures = List.rev !failures }

let seed_list ~base n =
  let rng = Hb_util.Rng.create base in
  List.init n (fun _ -> Hb_util.Rng.next rng)

(* Seeds pinned to exercise specific regression classes: a falsey
   pattern, a single-phase soup, a deep multi-phase soup. Extend with
   the minimised seed of any divergence the fuzzer ever surfaces. *)
let regression_seeds =
  [ 0x00000000_00000001L;  (* falsey conflict-chain pattern *)
    0x1db5a1d2_54c7a31bL;
    0x7f4a7c15_9e3779b9L;
    0x0badc0de_0000002aL;
  ]
