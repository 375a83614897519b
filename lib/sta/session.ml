type timings = {
  preprocess_seconds : float;
  analysis_seconds : float;
  constraints_seconds : float;
  preprocess_wall_seconds : float;
  analysis_wall_seconds : float;
  constraints_wall_seconds : float;
  peak_rss_bytes : int option;
}

type report = {
  context : Context.t;
  outcome : Algorithm1.outcome;
  constraints : Algorithm2.constraint_times option;
  hold_violations : Holdcheck.violation list;
  timings : timings;
}

(* Cached Algorithm 1 state, plus the phase costs of the run that
   produced it (the preprocess cost consumed from the pending slot). *)
type analysed = {
  outcome : Algorithm1.outcome;
  preprocess_seconds : float;
  preprocess_wall_seconds : float;
  analysis_seconds : float;
  analysis_wall_seconds : float;
}

type t = {
  mutable ctx : Context.t;
  base_delays : Delays.t;
  delays : Delays.t;  (* base wrapped with the override table *)
  overrides : (string, Annotation.entry) Hashtbl.t;
  baseline : Hb_util.Time.t array;
      (* offsets every analysis starts from: initial offsets + set_offset
         edits. Restored before each Algorithm 1 run so a re-query after
         relaxation moved offsets matches a fresh engine run. *)
  mutable pending_preprocess : float * float;  (* cpu, wall *)
  mutable analysed : analysed option;
  mutable constraints_cache :
    (Algorithm2.constraint_times * float * float) option;
  mutable hold_cache : Holdcheck.violation list option;
  mutable control : bool array option;
      (* [Edit.control_nets] of the design, computed by the first
         structural batch and kept: no accepted edit changes it (see
         [validate_batch]). Not in the snapshot. *)
  mutable closed : bool;
}

let c_analyses = Hb_util.Telemetry.counter "session.analyses"
let c_report_reuses = Hb_util.Telemetry.counter "session.report_reuses"
let c_mutations = Hb_util.Telemetry.counter "session.mutations"

let invalid fmt =
  Format.kasprintf (fun m -> raise (Error.Error (Error.Invalid m))) fmt

let check_open t = if t.closed then invalid "session is closed"

let timed f =
  let start_cpu = Sys.time () in
  let start_wall = Unix.gettimeofday () in
  let result = f () in
  (result, Sys.time () -. start_cpu, Unix.gettimeofday () -. start_wall)

(* [Annotation.apply]'s provider over the session's own table, so a
   session with overrides is bit-for-bit a fresh context built with the
   equivalent annotation wrapped around the base provider. *)
let override_provider overrides base =
  Annotation.overlay ~suffix:"+session" overrides ~base

(* A config that asks for telemetry switches the process's recording
   on; a session never switches it off. *)
let start_telemetry config =
  if config.Config.telemetry && not (Hb_util.Telemetry.enabled ()) then begin
    Hb_util.Telemetry.set_enabled true;
    Hb_util.Telemetry.reset ()
  end

let create ~design ~system ?(config = Config.default)
    ?(delays = Delays.lumped) () =
  start_telemetry config;
  let overrides = Hashtbl.create 16 in
  let provider = override_provider overrides delays in
  let ctx, cpu, wall =
    timed (fun () ->
        Hb_util.Telemetry.span "engine.preprocess" (fun () ->
            Context.make ~design ~system ~config ~delays:provider ()))
  in
  if Hb_util.Log.on Hb_util.Log.Info then
    Hb_util.Log.info "session.create"
      [ ("design", Hb_util.Log.String design.Hb_netlist.Design.design_name);
        ("elements", Hb_util.Log.Int (Elements.count ctx.Context.elements));
        ("preprocess_wall_s", Hb_util.Log.Float wall) ];
  { ctx;
    base_delays = delays;
    delays = provider;
    overrides;
    baseline = Elements.save_offsets ctx.Context.elements;
    pending_preprocess = (cpu, wall);
    analysed = None;
    constraints_cache = None;
    hold_cache = None;
    control = None;
    closed = false;
  }

let context t = t.ctx

let drop_queries t =
  t.analysed <- None;
  t.constraints_cache <- None;
  t.hold_cache <- None

type apply_result = {
  applied : int;
  structural : int;
  clusters_rebuilt : int;
  clusters_invalidated : int;
}

type apply_error = {
  failed_index : int option;
  error : Error.t;
}

(* Rolling state of a batch during validation: structural commands are
   applied to one staging copy of the design's arrays, made at the first
   of them (it never touches the session's design), and delay/offset
   effects are queued. *)
type staged = {
  mutable s_batch : Hb_netlist.Structural.Batch.t option;
  mutable s_touched : int list;  (* net ids whose cluster an edit dirties *)
  mutable s_overrides : (int * string * Annotation.entry) list;
      (* instance id and name, reversed *)
  mutable s_offsets : (int * Hb_util.Time.t) list;  (* reversed *)
  mutable s_structural : int;
}

exception Rejected of int option * Error.t

let reject index fmt =
  Format.kasprintf
    (fun m -> raise (Rejected (Some index, Error.Invalid m)))
    fmt

module Batch = Hb_netlist.Structural.Batch

(* Would moving an input of [inst] onto [target] close a combinational
   loop? True iff [target] is reachable forward from [inst]'s output
   nets through combinational gates of the staged design (the design
   {e after} the rewire). Gives cycle errors a per-command attribution
   instead of a batch-wide extraction failure. The walk stays inside
   one cluster of that design, so its visited set is a table as large
   as the walk. *)
let creates_cycle batch ~inst ~target =
  let visited = Hashtbl.create 16 in
  let exception Found in
  let rec walk net =
    if net = target then raise Found;
    if not (Hashtbl.mem visited net) then begin
      Hashtbl.add visited net ();
      List.iter
        (function
          | Hb_netlist.Design.Pin { inst = g; pin = _ } ->
            let record = Batch.instance batch g in
            let cell = record.Hb_netlist.Design.cell in
            if Hb_cell.Kind.is_comb cell.Hb_cell.Cell.kind then
              List.iter
                (fun (out : Hb_cell.Cell.pin) ->
                   match
                     List.assoc_opt out.Hb_cell.Cell.pin_name
                       record.Hb_netlist.Design.connections
                   with
                   | Some out_net -> walk out_net
                   | None -> ())
                (Hb_cell.Cell.output_pins cell)
          | Hb_netlist.Design.Port _ -> ())
        (Batch.net batch net).Hb_netlist.Design.loads
    end
  in
  try
    let record = Batch.instance batch inst in
    List.iter
      (fun (pin, net) ->
         match
           Hb_cell.Cell.find_pin record.Hb_netlist.Design.cell pin
         with
         | Some { Hb_cell.Cell.role = Hb_cell.Cell.Data_out; _ } ->
           walk net
         | Some _ | None -> ())
      record.Hb_netlist.Design.connections;
    false
  with Found -> true

(* The session's control marks, computed on first use. Control cones
   are invariant under accepted edits (they are exactly what the marks
   protect: an accepted edit touches no marked net, so no marked net
   gains or loses a driver), so the marks of the design the session
   started from, or was restored with, cover every later design; nets
   appended since are never control nets. *)
let control_marks t =
  match t.control with
  | Some marked -> marked
  | None ->
    let marked = Edit.control_nets t.ctx.Context.design in
    t.control <- Some marked;
    marked

let validate_batch t commands =
  let staged =
    { s_batch = None;
      s_touched = [];
      s_overrides = [];
      s_offsets = [];
      s_structural = 0;
    }
  in
  let is_control net =
    let marked = control_marks t in
    net < Array.length marked && marked.(net)
  in
  (* Every instance and net name the batch uses, resolved in one walk
     over the design with tables as large as the batch. A name maps to
     [-1] until found, and the lowest id wins, as in
     [Hb_netlist.Design.find_instance]. Only [Insert_buffer] adds names
     (remove_gate leaves a tombstone, and no edit renames), and it
     refuses a name the design has, so recording the names it appends
     keeps the tables equal to a lookup in the staged design. *)
  let inst_ids = Hashtbl.create 16 and net_ids = Hashtbl.create 16 in
  let want table name =
    if not (Hashtbl.mem table name) then Hashtbl.add table name (-1)
  in
  List.iter
    (fun (command : Edit.t) ->
       match command with
       | Edit.Set_delay { instance; _ }
       | Edit.Scale_delay { instance; _ }
       | Edit.Resize_gate { instance; _ }
       | Edit.Remove_gate { instance } -> want inst_ids instance
       | Edit.Rewire_net { instance; net; _ } ->
         want inst_ids instance;
         want net_ids net
       | Edit.Insert_buffer { net; _ } -> want net_ids net
       | Edit.Annotate annotation ->
         List.iter
           (fun (name, _) -> want inst_ids name)
           (Annotation.entries annotation)
       | Edit.Set_offset _ -> ())
    commands;
  let resolve table ~count ~name_of =
    let unresolved = ref (Hashtbl.length table) and id = ref 0 in
    while !unresolved > 0 && !id < count do
      let name = name_of !id in
      (match Hashtbl.find_opt table name with
       | Some -1 ->
         Hashtbl.replace table name !id;
         decr unresolved
       | Some _ | None -> ());
      incr id
    done
  in
  let design = t.ctx.Context.design in
  resolve inst_ids ~count:(Hb_netlist.Design.instance_count design)
    ~name_of:(fun i ->
        (Hb_netlist.Design.instance design i).Hb_netlist.Design.inst_name);
  resolve net_ids ~count:(Hb_netlist.Design.net_count design)
    ~name_of:(fun n ->
        (Hb_netlist.Design.net design n).Hb_netlist.Design.net_name);
  let appended table name id =
    match Hashtbl.find_opt table name with
    | Some -1 -> Hashtbl.replace table name id
    | Some _ | None -> ()
  in
  let find_instance i name =
    match Hashtbl.find inst_ids name with
    | -1 -> reject i "unknown instance %S" name
    | inst -> inst
  in
  let find_net i name =
    match Hashtbl.find net_ids name with
    | -1 -> reject i "unknown net %S" name
    | net -> net
  in
  (* The one staging copy, made at the first structural command with
     room for every buffer the batch inserts. *)
  let staging () =
    match staged.s_batch with
    | Some batch -> batch
    | None ->
      let appends =
        List.fold_left
          (fun n -> function Edit.Insert_buffer _ -> n + 1 | _ -> n)
          0 commands
      in
      let batch = Batch.stage ~appends design in
      staged.s_batch <- Some batch;
      batch
  in
  (* The nets of [inst] in the staged design, refused when one is a
     control net. *)
  let gate_nets batch i inst op =
    let record = Batch.instance batch inst in
    let nets = List.map snd record.Hb_netlist.Design.connections in
    List.iter
      (fun net ->
         if is_control net then
           reject i "%s: %s touches control net %s" op
             record.Hb_netlist.Design.inst_name
             (Batch.net batch net).Hb_netlist.Design.net_name)
      nets;
    nets
  in
  let surgery i f =
    try f () with
    | Invalid_argument m -> raise (Rejected (Some i, Error.Invalid m))
  in
  let touch nets = staged.s_touched <- nets @ staged.s_touched in
  let check_entry i op name = function
    | Annotation.Fixed { rise; fall } ->
      if not (rise >= 0.0 && fall >= 0.0) then
        reject i "%s %s: delays must be non-negative" op name
    | Annotation.Scaled factor ->
      if not (factor > 0.0) then
        reject i "%s %s: factor must be positive" op name
  in
  let override inst name entry =
    staged.s_overrides <- (inst, name, entry) :: staged.s_overrides
  in
  List.iteri
    (fun i command ->
       match (command : Edit.t) with
       | Edit.Set_delay { instance; rise; fall } ->
         let entry = Annotation.Fixed { rise; fall } in
         check_entry i "set_delay" instance entry;
         override (find_instance i instance) instance entry
       | Edit.Scale_delay { instance; factor } ->
         let entry = Annotation.Scaled factor in
         check_entry i "scale_delay" instance entry;
         override (find_instance i instance) instance entry
       | Edit.Annotate annotation ->
         (* First occurrence wins within one annotation and unknown names
            are ignored. *)
         let seen = Hashtbl.create 16 in
         List.iter
           (fun (name, entry) ->
              check_entry i "annotate" name entry;
              if not (Hashtbl.mem seen name) then begin
                Hashtbl.add seen name ();
                match Hashtbl.find inst_ids name with
                | -1 -> ()
                | inst -> override inst name entry
              end)
           (Annotation.entries annotation)
       | Edit.Set_offset { element; offset } ->
         if element < 0 || element >= Elements.count t.ctx.Context.elements
         then reject i "set_offset: element %d out of range" element;
         staged.s_offsets <- (element, offset) :: staged.s_offsets
       | Edit.Insert_buffer { net; cell; inst_name; net_name } ->
         let target = find_net i net in
         if is_control target then
           reject i "insert_buffer: net %s is in a control cone" net;
         let batch = staging () in
         let fresh_net = Batch.net_count batch in
         let fresh_inst = Batch.instance_count batch in
         surgery i (fun () ->
             Batch.insert_buffer batch ~net:target ~cell ?inst_name
               ?net_name ());
         appended inst_ids
           (Batch.instance batch fresh_inst).Hb_netlist.Design.inst_name
           fresh_inst;
         appended net_ids
           (Batch.net batch fresh_net).Hb_netlist.Design.net_name
           fresh_net;
         touch [ target; fresh_net ];
         staged.s_structural <- staged.s_structural + 1
       | Edit.Resize_gate { instance; cell } ->
         let inst = find_instance i instance in
         let batch = staging () in
         let nets = gate_nets batch i inst "resize_gate" in
         surgery i (fun () -> Batch.resize_gate batch ~inst ~cell);
         touch nets;
         staged.s_structural <- staged.s_structural + 1
       | Edit.Remove_gate { instance } ->
         let inst = find_instance i instance in
         let batch = staging () in
         let nets = gate_nets batch i inst "remove_gate" in
         surgery i (fun () -> Batch.remove_gate batch ~inst);
         touch nets;
         staged.s_structural <- staged.s_structural + 1
       | Edit.Rewire_net { instance; pin; net } ->
         let inst = find_instance i instance in
         let target = find_net i net in
         let batch = staging () in
         let nets = gate_nets batch i inst "rewire_net" in
         if is_control target then
           reject i "rewire_net: net %s is in a control cone" net;
         surgery i (fun () ->
             Batch.rewire_pin batch ~inst ~pin ~net:target);
         if creates_cycle batch ~inst ~target then
           raise
             (Rejected
                ( Some i,
                  Error.Cycle
                    (Printf.sprintf
                       "rewire_net %s.%s to %s creates a combinational \
                        cycle"
                       instance pin net) ));
         touch (target :: nets);
         staged.s_structural <- staged.s_structural + 1)
    commands;
  staged

let apply_r t commands =
  match
    check_open t;
    validate_batch t commands
  with
  | exception Rejected (failed_index, error) ->
    Error { failed_index; error }
  | exception Error.Error e -> Error { failed_index = None; error = e }
  | staged ->
    (match
       let rebuilt = ref 0 in
       let invalidated = ref 0 in
       (* Structural commit: swap in the edited design, rebuilding only
          the clusters the touched nets belong to. Nothing below this
          point raises in practice (validation covered every failure
          mode); [apply_structural] itself mutates nothing until its
          result is complete, so a defensive failure here still leaves
          the session on its old coherent state. *)
       (match staged.s_batch with
        | None -> ()
        | Some batch ->
          let design = Batch.finish batch in
          let old_net_count =
            Hb_netlist.Design.net_count t.ctx.Context.design
          in
          let touched =
            List.sort_uniq compare
              (List.filter_map
                 (fun net ->
                    if net < old_net_count then
                      Some t.ctx.Context.table.Cluster.cluster_of_net.(net)
                    else None)
                 staged.s_touched)
          in
          let ctx, n =
            Hb_util.Telemetry.span "session.apply_structural" (fun () ->
                Context.apply_structural t.ctx ~design ~touched
                  ~delays:t.delays ())
          in
          t.ctx <- ctx;
          rebuilt := n);
       (* Delay overrides: record them all, then refresh the affected
          instances' arcs once — the final arc state only depends on
          the final override table, matching sequential application. *)
       let overrides = List.rev staged.s_overrides in
       if overrides <> [] then begin
         List.iter
           (fun (_, name, entry) -> Hashtbl.replace t.overrides name entry)
           overrides;
         let insts =
           List.sort_uniq compare
             (List.map (fun (inst, _, _) -> inst) overrides)
         in
         let touched =
           Cluster.refresh_instance_delays t.ctx.Context.table
             ~design:t.ctx.Context.design ~insts ~delays:t.delays ()
         in
         Context.invalidate_clusters t.ctx touched;
         invalidated := List.length touched
       end;
       List.iter
         (fun (element, offset) ->
            let e = Elements.element t.ctx.Context.elements element in
            Hb_sync.Element.set_o_dz e offset;
            (* Read back: set_o_dz clamps, boundaries ignore writes. *)
            t.baseline.(element) <- Hb_sync.Element.o_dz e)
         (List.rev staged.s_offsets);
       let changed =
         staged.s_structural > 0
         || overrides <> []
         || staged.s_offsets <> []
       in
       if changed then begin
         Hb_util.Telemetry.incr c_mutations;
         drop_queries t
       end;
       if Hb_util.Log.on Hb_util.Log.Info then
         Hb_util.Log.info "session.apply"
           [ ("commands", Hb_util.Log.Int (List.length commands));
             ("structural", Hb_util.Log.Int staged.s_structural);
             ("clusters_rebuilt", Hb_util.Log.Int !rebuilt);
             ("clusters_invalidated", Hb_util.Log.Int !invalidated) ];
       { applied = List.length commands;
         structural = staged.s_structural;
         clusters_rebuilt = !rebuilt;
         clusters_invalidated = !invalidated;
       }
     with
     | result -> Ok result
     | exception e ->
       (* Defensive: an unexpected commit failure may have left arcs
          half-refreshed; drop every cache so nothing stale is trusted. *)
       Context.invalidate_cache t.ctx;
       drop_queries t;
       (match Error.of_exn e with
        | Some error -> Error { failed_index = None; error }
        | None -> raise e))

let apply t commands =
  match apply_r t commands with
  | Ok result -> result
  | Error { failed_index; error } ->
    let error =
      match (failed_index, error) with
      | Some i, Error.Invalid m ->
        Error.Invalid (Printf.sprintf "edit %d: %s" i m)
      | Some i, Error.Cycle m ->
        Error.Cycle (Printf.sprintf "edit %d: %s" i m)
      | _, e -> e
    in
    raise (Error.Error error)

(* Run Algorithm 1 (or reuse the cached run). Any exception — a timeout
   tearing down a parallel slack evaluation included — drops the slack
   cache and puts the baseline offsets back before propagating. *)
let ensure_analysis t =
  check_open t;
  match t.analysed with
  | Some a -> a
  | None ->
    Elements.restore_offsets t.ctx.Context.elements t.baseline;
    let preprocess_seconds, preprocess_wall_seconds = t.pending_preprocess in
    let outcome, analysis_seconds, analysis_wall_seconds =
      try
        timed (fun () ->
            Hb_util.Telemetry.span "engine.analysis" (fun () ->
                Algorithm1.run t.ctx))
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Context.invalidate_cache t.ctx;
        Elements.restore_offsets t.ctx.Context.elements t.baseline;
        Printexc.raise_with_backtrace e bt
    in
    t.pending_preprocess <- (0.0, 0.0);
    Hb_util.Telemetry.incr c_analyses;
    if Hb_util.Log.on Hb_util.Log.Info then
      Hb_util.Log.info "session.analyse"
        [ ("status", Hb_util.Log.String
             (match outcome.Algorithm1.status with
              | Algorithm1.Meets_timing -> "meets_timing"
              | Algorithm1.Slow_paths -> "slow_paths"));
          ("forward_cycles", Hb_util.Log.Int outcome.Algorithm1.forward_cycles);
          ("capped", Hb_util.Log.Bool outcome.Algorithm1.capped);
          ("wall_s", Hb_util.Log.Float analysis_wall_seconds) ];
    let a =
      { outcome;
        preprocess_seconds;
        preprocess_wall_seconds;
        analysis_seconds;
        analysis_wall_seconds;
      }
    in
    t.analysed <- Some a;
    a

let ensure_constraints t =
  match t.constraints_cache with
  | Some entry -> entry
  | None ->
    let _ = ensure_analysis t in
    let snapshot = Elements.save_offsets t.ctx.Context.elements in
    let times, cpu, wall =
      try
        timed (fun () ->
            Hb_util.Telemetry.span "engine.constraints" (fun () ->
                Algorithm2.run t.ctx))
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Context.invalidate_cache t.ctx;
        Elements.restore_offsets t.ctx.Context.elements snapshot;
        Printexc.raise_with_backtrace e bt
    in
    Elements.restore_offsets t.ctx.Context.elements snapshot;
    let entry = (times, cpu, wall) in
    t.constraints_cache <- Some entry;
    entry

let ensure_hold t =
  match t.hold_cache with
  | Some violations -> violations
  | None ->
    let _ = ensure_analysis t in
    let violations =
      Hb_util.Telemetry.span "engine.holdcheck" (fun () ->
          Holdcheck.check t.ctx)
    in
    t.hold_cache <- Some violations;
    violations

let analyse ?(generate_constraints = true) ?(check_hold = true) t =
  check_open t;
  let reused = t.analysed <> None in
  let a = ensure_analysis t in
  if reused then Hb_util.Telemetry.incr c_report_reuses;
  let constraints, constraints_seconds, constraints_wall_seconds =
    if generate_constraints then
      let times, cpu, wall = ensure_constraints t in
      (Some times, cpu, wall)
    else (None, 0.0, 0.0)
  in
  let hold_violations = if check_hold then ensure_hold t else [] in
  { context = t.ctx;
    outcome = a.outcome;
    constraints;
    hold_violations;
    timings =
      { preprocess_seconds = a.preprocess_seconds;
        analysis_seconds = a.analysis_seconds;
        constraints_seconds;
        preprocess_wall_seconds = a.preprocess_wall_seconds;
        analysis_wall_seconds = a.analysis_wall_seconds;
        constraints_wall_seconds;
        peak_rss_bytes = Hb_util.Rss.peak_bytes ();
      };
  }

let worst_paths t ~limit =
  check_open t;
  let reused = t.analysed <> None in
  let a = ensure_analysis t in
  if reused then Hb_util.Telemetry.incr c_report_reuses;
  Paths.worst_paths t.ctx a.outcome.Algorithm1.final ~limit

let constraints t =
  check_open t;
  let times, _, _ = ensure_constraints t in
  times

let hold t =
  check_open t;
  ensure_hold t

let is_cached ?(constraints = false) ?(hold = false) t =
  (not t.closed)
  && t.analysed <> None
  && ((not constraints) || t.constraints_cache <> None)
  && ((not hold) || t.hold_cache <> None)

(* Everything a warm replica needs: the preprocessed context (element
   state, cluster graphs, pass plans, slack/macro caches included — all
   plain data), the override/offset edit state, and the cached query
   results. The delay provider is a closure, so it is stored by name
   and rebuilt on restore; the override wrapper is re-created around
   the restored table. *)
type snapshot_state = {
  sp_ctx : Context.t;
  sp_overrides : (string * Annotation.entry) list;
  sp_baseline : Hb_util.Time.t array;
  sp_base : string;  (* one of [Delays.names] *)
  sp_analysed : analysed option;
  sp_constraints : (Algorithm2.constraint_times * float * float) option;
  sp_hold : Holdcheck.violation list option;
}

let save_snapshot t ~path =
  check_open t;
  let sp_base = t.base_delays.Delays.name in
  if Option.is_none (Delays.of_name sp_base) then
    invalid
      "cannot snapshot a session with delay provider %s (only %s can be \
       rebuilt on restore)"
      sp_base (String.concat "|" Delays.names);
  let state =
    { sp_ctx = t.ctx;
      sp_overrides =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.overrides [];
      sp_baseline = t.baseline;
      sp_base;
      sp_analysed = t.analysed;
      sp_constraints = t.constraints_cache;
      sp_hold = t.hold_cache;
    }
  in
  let payload =
    (* No closure flag: a functional value smuggled into the context
       must fail here, at save, not crash a future restore. *)
    try Marshal.to_string state []
    with Invalid_argument m | Failure m ->
      invalid "snapshot serialisation failed: %s" m
  in
  Snapshot.write ~path payload;
  if Hb_util.Log.on Hb_util.Log.Info then
    Hb_util.Log.info "session.save_snapshot"
      [ ("path", Hb_util.Log.String path);
        ("bytes", Hb_util.Log.Int (String.length payload)) ]

let of_snapshot ~path =
  match Snapshot.read ~path with
  | Error e -> raise (Error.Error e)
  | Ok payload ->
    let state : snapshot_state = Marshal.from_string payload 0 in
    start_telemetry state.sp_ctx.Context.config;
    let base_delays =
      match Delays.of_name state.sp_base with
      | Some delays -> delays
      | None -> invalid "%s: unknown delay provider %s" path state.sp_base
    in
    let overrides = Hashtbl.create 16 in
    List.iter
      (fun (name, entry) -> Hashtbl.replace overrides name entry)
      state.sp_overrides;
    if Hb_util.Log.on Hb_util.Log.Info then
      Hb_util.Log.info "session.of_snapshot"
        [ ("path", Hb_util.Log.String path);
          ("design",
           Hb_util.Log.String
             state.sp_ctx.Context.design.Hb_netlist.Design.design_name);
          ("warm", Hb_util.Log.Bool (state.sp_analysed <> None)) ];
    { ctx = state.sp_ctx;
      base_delays;
      delays = override_provider overrides base_delays;
      overrides;
      baseline = state.sp_baseline;
      pending_preprocess = (0.0, 0.0);
      (* The cached run carries the saver's preprocess cost; this
         process paid none. *)
      analysed =
        Option.map
          (fun a ->
             { a with preprocess_seconds = 0.0; preprocess_wall_seconds = 0.0 })
          state.sp_analysed;
      constraints_cache = state.sp_constraints;
      hold_cache = state.sp_hold;
      control = None;
      closed = false;
    }

let close ?(shutdown_pool = false) t =
  if not t.closed then begin
    t.closed <- true;
    drop_queries t;
    Context.invalidate_cache t.ctx;
    if Hb_util.Log.on Hb_util.Log.Debug then
      Hb_util.Log.debug "session.close" []
  end;
  if shutdown_pool then Hb_util.Pool.shutdown_shared ()
