type t = {
  element_input_slack : Hb_util.Time.t array;
  element_output_slack : Hb_util.Time.t array;
  net_slack : Hb_util.Time.t array;
  net_ready : Hb_util.Time.t array;
  net_required : Hb_util.Time.t array;
  worst : Hb_util.Time.t;
}

let c_clusters_evaluated = Hb_util.Telemetry.counter "slacks.clusters_evaluated"
let c_cluster_cache_hits = Hb_util.Telemetry.counter "slacks.cluster_cache_hits"
let c_block_evaluations = Hb_util.Telemetry.counter "slacks.block_evaluations"
let g_dirty_clusters = Hb_util.Telemetry.gauge "slacks.dirty_clusters"

(* The loops below call only Stdlib and this module: no closure is built
   and no float is boxed per net, terminal or cluster, so a snapshot
   allocates a constant amount whatever the design size. Cross-module
   float helpers would box under the default dev profile, which compiles
   every library [-opaque]; boundary times are therefore read from the
   pass tables and the elements' cached offsets as [linear +. offset]. *)

(* Min-merge the element slacks of one (cluster, pass) block result. *)
let merge_elements ~(passes : Passes.t) ~all (cluster : Cluster.t) ~cut
    (result : Block.result) ~input_slack ~output_slack =
  let linear = passes.Passes.linear in
  let row = cut * passes.Passes.node_count in
  let assignment = passes.Passes.plans.(cluster.Cluster.id).Passes.assignment in
  let closure_node = passes.Passes.element_closure_node in
  let assertion_node = passes.Passes.element_assertion_node in
  let ready = result.Block.ready and required = result.Block.required in
  (* Output-terminal (element data-input) slacks: only in the assigned
     pass. *)
  let outputs = cluster.Cluster.outputs in
  for o = 0 to Array.length outputs - 1 do
    let e = outputs.(o).Cluster.element in
    let node = closure_node.(e) in
    if assignment.(o) = cut && node >= 0 then begin
      let r = ready.(outputs.(o).Cluster.net) in
      if Float.is_finite r then begin
        let closure =
          linear.(row + node)
          +. all.(e).Hb_sync.Element.offsets.Hb_sync.Element.closure
        in
        let slack = closure -. r in
        if slack < input_slack.(e) then input_slack.(e) <- slack
      end
    end
  done;
  (* Input-terminal (element output) slacks: every pass constrains the
     paths that emanate from the terminal. *)
  let inputs = cluster.Cluster.inputs in
  for i = 0 to Array.length inputs - 1 do
    let e = inputs.(i).Cluster.element in
    let node = assertion_node.(e) in
    if node >= 0 then begin
      let q = required.(inputs.(i).Cluster.net) in
      if Float.is_finite q then begin
        let assertion =
          linear.(row + node)
          +. all.(e).Hb_sync.Element.offsets.Hb_sync.Element.assertion
        in
        let slack = q -. assertion in
        if slack < output_slack.(e) then output_slack.(e) <- slack
      end
    end
  done

(* Min-merge the net slacks of one (cluster, pass) block result, with the
   ready/required times of the worst pass. Recorded times stay on the
   pass's broken-open axis (offset by the pass origin, NOT reduced modulo
   the period): reducing would scramble the ready/required ordering for
   windows that span the wrap. Subtract multiples of the period to place
   a value inside the clock period. *)
let merge_nets ~(passes : Passes.t) (cluster : Cluster.t) ~cut
    (result : Block.result) ~net_slack ~net_ready ~net_required =
  let first = (cut + 1) mod passes.Passes.node_count in
  let origin = passes.Passes.node_time.(first) in
  let ready = result.Block.ready and required = result.Block.required in
  let nets = cluster.Cluster.nets in
  for local = 0 to Array.length nets - 1 do
    let r = ready.(local) and q = required.(local) in
    if Float.is_finite r && Float.is_finite q then begin
      let slack = q -. r in
      let global = nets.(local) in
      if slack < net_slack.(global) then begin
        net_slack.(global) <- slack;
        net_ready.(global) <- r +. origin;
        net_required.(global) <- q +. origin
      end
    end
  done

(* Net-level accumulators of a full compute; [None] for an element-only
   snapshot. *)
type nets = {
  slack : Hb_util.Time.t array;
  ready : Hb_util.Time.t array;
  required : Hb_util.Time.t array;
}

let rec aggregate_cuts ctx ~row ~nets ~input_slack ~output_slack cluster
    cut_index = function
  | [] -> ()
  | cut :: rest ->
    let passes = ctx.Context.passes in
    let result = row.(cut_index) in
    (match nets with
     | None -> ()
     | Some nets ->
       merge_nets ~passes cluster ~cut result ~net_slack:nets.slack
         ~net_ready:nets.ready ~net_required:nets.required);
    merge_elements ~passes ~all:ctx.Context.elements.Elements.all cluster ~cut
      result ~input_slack ~output_slack;
    aggregate_cuts ctx ~row ~nets ~input_slack ~output_slack cluster
      (cut_index + 1) rest

(* Aggregation over every (cluster, pass) of the refreshed cache, in
   cluster order regardless of how the block results were produced, so
   incremental/parallel evaluation cannot perturb the outcome. *)
let aggregate (ctx : Context.t) (cache : Context.cache) ~nets ~input_slack
    ~output_slack =
  Array.fill input_slack 0 (Array.length input_slack) Float.infinity;
  Array.fill output_slack 0 (Array.length output_slack) Float.infinity;
  let passes = ctx.Context.passes in
  let clusters = ctx.Context.table.Cluster.clusters in
  for c = 0 to Array.length clusters - 1 do
    let cluster = clusters.(c) in
    let id = cluster.Cluster.id in
    aggregate_cuts ctx ~row:cache.Context.results.(id) ~nets ~input_slack
      ~output_slack cluster 0 passes.Passes.plans.(id).Passes.cuts
  done

(* Minimum finite slack over both terminal arrays, inputs first. *)
let worst_of ~input_slack ~output_slack =
  let worst = ref Float.infinity in
  for e = 0 to Array.length input_slack - 1 do
    let slack = input_slack.(e) in
    if Float.is_finite slack && slack < !worst then worst := slack
  done;
  for e = 0 to Array.length output_slack - 1 do
    let slack = output_slack.(e) in
    if Float.is_finite slack && slack < !worst then worst := slack
  done;
  !worst

(* An element-only snapshot over the caller's buffers. *)
let snapshot ~input_slack ~output_slack =
  { element_input_slack = input_slack;
    element_output_slack = output_slack;
    net_slack = [||]; net_ready = [||]; net_required = [||];
    worst = worst_of ~input_slack ~output_slack;
  }

let rec evaluate_cuts ~passes ~elements ~mode row cluster cut_index = function
  | [] -> ()
  | cut :: rest ->
    Hb_util.Telemetry.incr c_block_evaluations;
    Block.evaluate_into ~passes ~elements ~cluster ~cut ~mode row.(cut_index);
    evaluate_cuts ~passes ~elements ~mode row cluster (cut_index + 1) rest

let evaluate_cluster ~passes ~elements ~mode (cache : Context.cache)
    (cluster : Cluster.t) =
  (* Deadline poll per cluster: a no-op on pool worker domains (their
     DLS carries no budget), it fires on the inline/submitter domain —
     the one the serve scheduler guards. *)
  Hb_util.Timeout.check ();
  evaluate_cuts ~passes ~elements ~mode
    cache.Context.results.(cluster.Cluster.id) cluster 0
    passes.Passes.plans.(cluster.Cluster.id).Passes.cuts

(* Re-evaluate the dirty clusters into the context's cache, fanning the
   work across the shared domain pool when [parallel_jobs > 1]. Cluster
   evaluations are mutually independent (disjoint result buffers,
   read-only inputs), so both the caching and the parallelism are
   bit-for-bit neutral. The paper's from-scratch path (incremental off)
   marks every cluster dirty. *)
let refresh_cache ~force (ctx : Context.t) =
  let config = ctx.Context.config in
  let mode : Block.mode =
    if config.Config.rise_fall then `Rise_fall else `Scalar
  in
  let cache = Context.cache ctx in
  let clusters = ctx.Context.table.Cluster.clusters in
  let cluster_count = Array.length clusters in
  let dirty = cache.Context.dirty in
  let versions = cache.Context.versions in
  let elements = ctx.Context.elements in
  let all = elements.Elements.all in
  if force || not config.Config.incremental then
    Array.fill dirty 0 cluster_count true;
  let clusters_of_element = ctx.Context.clusters_of_element in
  for e = 0 to Array.length all - 1 do
    let version = all.(e).Hb_sync.Element.version in
    if version <> versions.(e) then begin
      versions.(e) <- version;
      let incident = clusters_of_element.(e) in
      for k = 0 to Array.length incident - 1 do
        dirty.(incident.(k)) <- true
      done
    end
  done;
  let passes = ctx.Context.passes in
  let count = ref 0 in
  for c = 0 to cluster_count - 1 do
    if dirty.(c) then incr count
  done;
  let count = !count in
  let jobs = config.Config.parallel_jobs in
  Hb_util.Telemetry.add c_clusters_evaluated count;
  Hb_util.Telemetry.add c_cluster_cache_hits (cluster_count - count);
  Hb_util.Telemetry.set_gauge g_dirty_clusters (float_of_int count);
  if jobs <= 1 || count <= 1 then begin
    for c = 0 to cluster_count - 1 do
      if dirty.(c) then
        evaluate_cluster ~passes ~elements ~mode cache clusters.(c)
    done
  end
  else begin
    let todo = Array.make count 0 in
    let next = ref 0 in
    for c = 0 to cluster_count - 1 do
      if dirty.(c) then begin
        todo.(!next) <- c;
        incr next
      end
    done;
    Hb_util.Pool.run ~label:"slacks.clusters" (Hb_util.Pool.shared ~jobs)
      ~count (fun i ->
          evaluate_cluster ~passes ~elements ~mode cache clusters.(todo.(i)))
  end;
  Array.fill dirty 0 cluster_count false;
  cache

let compute ?(force = false) (ctx : Context.t) =
  let cache = refresh_cache ~force ctx in
  let element_count = Elements.count ctx.Context.elements in
  let net_count = Hb_netlist.Design.net_count ctx.Context.design in
  let input_slack = Array.make element_count Float.infinity in
  let output_slack = Array.make element_count Float.infinity in
  let nets =
    { slack = Array.make net_count Float.infinity;
      ready = Array.make net_count Float.nan;
      required = Array.make net_count Float.nan;
    }
  in
  aggregate ctx cache ~nets:(Some nets) ~input_slack ~output_slack;
  { element_input_slack = input_slack;
    element_output_slack = output_slack;
    net_slack = nets.slack;
    net_ready = nets.ready;
    net_required = nets.required;
    worst = worst_of ~input_slack ~output_slack;
  }

let check_buffers (ctx : Context.t) ~input_slack ~output_slack =
  let n = Elements.count ctx.Context.elements in
  if Array.length input_slack <> n || Array.length output_slack <> n then
    invalid_arg "Slacks: snapshot buffers must hold one slot per element"

let compute_elements (ctx : Context.t) ~input_slack ~output_slack =
  check_buffers ctx ~input_slack ~output_slack;
  aggregate ctx (refresh_cache ~force:false ctx) ~nets:None ~input_slack
    ~output_slack;
  snapshot ~input_slack ~output_slack

let rec evaluate_macro_cuts macro ~passes ~elements ~plan ~input_slack
    ~output_slack = function
  | [] -> ()
  | cut :: rest ->
    Macro.evaluate macro ~passes ~elements ~plan ~cut ~input_slack
      ~output_slack;
    evaluate_macro_cuts macro ~passes ~elements ~plan ~input_slack
      ~output_slack rest

(* Macro-level snapshot: element slacks only, evaluated through the
   per-cluster interface-arc macros, which are bit-identical to flat
   evaluation (see Macro) and skip the per-net sweeps entirely. *)
let compute_macro (ctx : Context.t) ~input_slack ~output_slack =
  check_buffers ctx ~input_slack ~output_slack;
  let elements = ctx.Context.elements in
  let passes = ctx.Context.passes in
  Array.fill input_slack 0 (Array.length input_slack) Float.infinity;
  Array.fill output_slack 0 (Array.length output_slack) Float.infinity;
  let clusters = ctx.Context.table.Cluster.clusters in
  let store = Context.macros ctx in
  for c = 0 to Array.length clusters - 1 do
    let cluster = clusters.(c) in
    let id = cluster.Cluster.id in
    let macro =
      match store.(id) with
      | Some macro -> macro
      | None ->
        let macro = Macro.extract ~passes cluster in
        store.(id) <- Some macro;
        macro
    in
    let plan = passes.Passes.plans.(id) in
    Hb_util.Telemetry.incr c_clusters_evaluated;
    evaluate_macro_cuts macro ~passes ~elements ~plan ~input_slack
      ~output_slack plan.Passes.cuts
  done;
  snapshot ~input_slack ~output_slack

let compute_transfer (ctx : Context.t) ~input_slack ~output_slack =
  let config = ctx.Context.config in
  if config.Config.macro && not config.Config.rise_fall then
    compute_macro ctx ~input_slack ~output_slack
  else compute_elements ctx ~input_slack ~output_slack

(* [Hb_util.Time.le slack 0.0], written out so the loop boxes nothing. *)
let[@inline] non_positive slack =
  slack +. Hb_util.Time.eps < 0.0
  || Float.abs (slack -. 0.0) <= Hb_util.Time.eps
  || slack = 0.0

let all_positive t =
  let input = t.element_input_slack and output = t.element_output_slack in
  let e = ref 0 in
  while !e < Array.length input && not (non_positive input.(!e)) do incr e done;
  !e = Array.length input
  && begin
    let e = ref 0 in
    while !e < Array.length output && not (non_positive output.(!e)) do
      incr e
    done;
    !e = Array.length output
  end
