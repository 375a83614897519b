(** Bundled analysis state: design, clocks, configuration, the element
    table, cluster decomposition and pass plans.

    Building a context performs all of Hummingbird's pre-processing
    (control-cone tracing, replication, cluster generation and the
    Section 7 pass-minimisation); the algorithms then iterate over it. *)

(** Cached per-(cluster, pass) block results, owned by the incremental
    slack engine ({!Slacks.compute}). The cache is valid for a single
    evaluation mode; [versions] snapshots each element's
    {!Hb_sync.Element.version} as of the last compute, so the next call
    re-evaluates only clusters incident to an element whose version
    moved. [dirty] is a reusable per-cluster scratch flag array. *)
type cache = {
  cache_mode : Block.mode;
  versions : int array;
  results : Block.result option array array;
      (** indexed by cluster id, then position in the plan's cut list *)
  dirty : bool array;
  arena : Hb_util.Arena.t;  (** recycles result buffers across resets *)
}

type t = {
  design : Hb_netlist.Design.t;
  system : Hb_clock.System.t;
  config : Config.t;
  elements : Elements.t;
  table : Cluster.table;
  passes : Passes.t;
  clusters_of_element : int array array;
      (** element id → ids of clusters with a terminal on that element;
          sorted, duplicate-free. Fixed by the topology. *)
  mutable slack_cache : cache option;
  mutable macro_cache : Macro.t option array option;
      (** per-cluster timing macros, extracted lazily by the macro slack
          path ({!Slacks.compute_transfer}); see {!macros} *)
}

(** [make ~design ~system ?config ?delays ()] runs the pre-processing
    stage. [delays] picks the component-delay estimator (default
    {!Delays.lumped}).
    @raise Elements.Build_error on control-cone violations.
    @raise Cluster.Cycle_error on combinational cycles.
    @raise Passes.Pass_error on clock-edge inconsistencies. *)
val make :
  design:Hb_netlist.Design.t ->
  system:Hb_clock.System.t ->
  ?config:Config.t ->
  ?delays:Delays.t ->
  unit ->
  t

(** [cache t ~mode] returns the slack cache for [mode], creating a fresh
    one (every cluster stale) when none exists or the cached mode
    differs. *)
val cache : t -> mode:Block.mode -> cache

(** [invalidate_cache t] drops the slack cache and every timing macro;
    the next {!Slacks.compute} re-evaluates everything. Needed only when
    timing data changes behind the elements' backs (offset mutations are
    tracked automatically via element versions and never stale a
    macro). *)
val invalidate_cache : t -> unit

(** [invalidate_clusters t ids] drops only the named clusters' cached
    results (buffers recycled through the arena) and timing macros: the
    next {!Slacks.compute} re-evaluates exactly those clusters and serves
    the rest from cache, and the macro path re-extracts exactly those
    macros. The targeted counterpart of {!invalidate_cache}, paired with
    [Cluster.refresh_instance_delays] when a session edits one instance's
    delay in place.
    @raise Invalid_argument on a cluster id outside the table. *)
val invalidate_clusters : t -> int list -> unit

(** [macros t] returns the per-cluster macro store (indexed by cluster
    id), creating an all-empty one on first use. Slots are filled lazily
    by the macro slack path and evicted by {!invalidate_clusters} and
    {!invalidate_cache}. *)
val macros : t -> Macro.t option array

(** [cache_result cache cluster ~cut_index] returns the cached result
    buffers for the cluster's [cut_index]-th pass, allocating them from
    the cache's arena on first use. *)
val cache_result : cache -> Cluster.t -> cut_index:int -> Block.result

(** [apply_structural ctx ~design ~touched ?delays ()] re-targets the
    context at a structurally edited design produced by
    [Hb_netlist.Structural] surgery: net and instance ids are stable,
    and no edit moved a sync pin, a port, or a control-cone net.
    [touched] lists the {e old} cluster ids an edit may have changed
    (new arcs, changed capacitances, membership churn). Only their nets
    and the appended ones are partitioned again ({!Cluster.update});
    every other cluster's graph, pass plan, cached slack rows, timing
    macro, endpoint entries and incidence rows carry over untouched,
    and rebuilt clusters start with empty cache rows that the
    incremental refresh picks up as dirty. The element table (with its
    live offset/version state) is retargeted, not rebuilt. Returns the
    new context and the number of clusters that were rebuilt. Nothing
    is mutated before the new structures are complete, so a raise
    (e.g. {!Cluster.Cycle_error} on a cycle-creating rewire) leaves the
    input context fully usable; on success its cache buffers are
    recycled into the returned context, which may share arrays with
    it, and the old context must be dropped.
    @raise Invalid_argument on a [touched] id outside the old table. *)
val apply_structural :
  t ->
  design:Hb_netlist.Design.t ->
  touched:int list ->
  ?delays:Delays.t ->
  unit ->
  t * int
