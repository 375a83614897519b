(** Bundled analysis state: design, clocks, configuration, the element
    table, cluster decomposition and pass plans.

    Building a context performs all of Hummingbird's pre-processing
    (control-cone tracing, replication, cluster generation and the
    Section 7 pass-minimisation); the algorithms then iterate over it. *)

(** The slack cache: the one place block results live, owned by the
    slack engine ({!Slacks.compute}). Every (cluster, pass) has a row,
    allocated when the cache is created or its cluster rebuilt.
    [versions] snapshots each element's {!Hb_sync.Element.version} as of
    the last refresh; [dirty] marks the clusters whose rows are stale.
    A refresh marks the clusters incident to an element whose version
    moved, evaluates every dirty cluster and clears the flags only once
    all of them are done, so an interrupted refresh leaves them dirty. *)
type cache = {
  versions : int array;
  results : Block.result array array;
      (** indexed by cluster id, then position in the plan's cut list *)
  dirty : bool array;  (** indexed by cluster id *)
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

(** [cache t] returns the slack cache, creating it on first use with
    every row allocated and every cluster dirty. Rows are evaluated
    under the configuration's arrival model ([Config.rise_fall]). *)
val cache : t -> cache

(** [invalidate_cache t] drops the slack cache and every timing macro;
    the next {!Slacks.compute} re-evaluates everything. Needed only when
    timing data changes behind the elements' backs (offset mutations are
    tracked automatically via element versions and never stale a
    macro). *)
val invalidate_cache : t -> unit

(** [invalidate_clusters t ids] marks the named clusters dirty in the
    slack cache and drops their timing macros: the next {!Slacks.compute}
    re-evaluates those clusters (and any an offset move made stale) and
    serves the rest from cache, and the macro path re-extracts exactly
    those macros. The targeted counterpart of {!invalidate_cache}, paired with
    [Cluster.refresh_instance_delays] when a session edits one instance's
    delay in place.
    @raise Invalid_argument on a cluster id outside the table. *)
val invalidate_clusters : t -> int list -> unit

(** [macros t] returns the per-cluster macro store (indexed by cluster
    id), creating an all-empty one on first use. Slots are filled lazily
    by the macro slack path and evicted by {!invalidate_clusters} and
    {!invalidate_cache}. *)
val macros : t -> Macro.t option array

(** [apply_structural ctx ~design ~touched ?delays ()] re-targets the
    context at a structurally edited design produced by
    [Hb_netlist.Structural] surgery: net and instance ids are stable,
    and no edit moved a sync pin, a port, or a control-cone net.
    [touched] lists the {e old} cluster ids an edit may have changed
    (new arcs, changed capacitances, membership churn). Only their nets
    and the appended ones are partitioned again ({!Cluster.update});
    every other cluster's graph, pass plan, cached slack rows and dirty
    flag, timing macro, endpoint entries and incidence rows carry over
    untouched, and each rebuilt cluster gets fresh cache rows marked
    dirty. The element table (with its
    live offset/version state) is retargeted, not rebuilt. Returns the
    new context and the number of clusters that were rebuilt. Nothing
    is mutated before the new structures are complete, so a raise
    (e.g. {!Cluster.Cycle_error} on a cycle-creating rewire) leaves the
    input context fully usable; on success the returned context shares
    the kept cache rows and possibly the dirty flags with it, and the
    old context must be dropped.
    @raise Invalid_argument on a [touched] id outside the old table. *)
val apply_structural :
  t ->
  design:Hb_netlist.Design.t ->
  touched:int list ->
  ?delays:Delays.t ->
  unit ->
  t * int
