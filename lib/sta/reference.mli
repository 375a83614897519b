(** Naive exhaustive reference evaluator — the differential-fuzzing
    oracle, and the "computationally expensive" exact path enumeration
    the paper weighs the block method against (Section 7).

    Recomputes the design's terminal slacks by plain longest-path walks
    over the {e flat} netlist graph: timing arcs are re-derived directly
    from the design's instances through the delay provider, and every
    complete source-to-endpoint path is walked depth-first, left to
    right. {!evaluate} folds the walk into per-terminal slacks;
    {!paths} returns the paths into one endpoint themselves, the
    reference {!Paths.enumerate} is checked against. None of the
    optimised machinery is involved — no cluster CSR/topology arrays, no
    incremental cache, no timing macros, no domain pools, no arenas;
    {!paths} reads the cluster table only to label each path with its
    cluster. Only the semantic front-end is shared with the engine under
    test: the element table (so the verdict reflects the {e current}
    element offsets), and the pass plan's assertion/closure placement
    ({!Block.assertion_time} / {!Block.closure_time},
    {!Passes.t}[.endpoint_cut]) — those define what the paper's timing
    model {e means}, not how it is evaluated.

    Because the walk folds delays strictly left to right while the
    engine's block evaluation uses source-tagged (base, accumulated)
    pairs, agreement with {!Slacks.compute} is within a few ulps, not
    bit-exact; differential drivers compare with a small absolute
    tolerance (see {!Hb_workload.Fuzz}).

    Path counts are exponential in the worst case; both walks are
    budgeted: {!evaluate} reports truncation, {!paths} raises
    {!Budget_exhausted}. *)

type verdict = {
  status : [ `Meets_timing | `Slow_paths ];
      (** [`Meets_timing] iff every walked path has strictly positive
          slack — the {!Slacks.all_positive} criterion *)
  worst_slack : Hb_util.Time.t;
      (** minimum slack over all complete paths; [+inf] when the design
          has no constrained path *)
  element_input_slack : Hb_util.Time.t array;
      (** per element id: minimum slack over paths ending at its
          data-input terminal; [+inf] where unconstrained *)
  element_output_slack : Hb_util.Time.t array;
      (** per element id: minimum slack over paths launched from its
          output terminal; [+inf] where unconstrained *)
  paths_walked : int;  (** complete paths examined *)
  truncated : bool;    (** true when the [max_paths] budget ran out *)
}

(** Raised when the path budget runs out. {!evaluate} catches it and
    reports [truncated = true]; {!paths} lets it escape. *)
exception Budget_exhausted

(** [evaluate ?delays ?max_paths ctx] walks every complete path of the
    design at the current element offsets. [delays] must be the same
    provider the context was built with (default {!Delays.lumped});
    [max_paths] (default [2_000_000]) bounds the number of complete
    paths before the verdict is declared truncated. *)
val evaluate : ?delays:Delays.t -> ?max_paths:int -> Context.t -> verdict

(** The flat arc graph {!paths} walks: every arc re-derived from the
    design through the delay provider, with predecessor lists. Prepare
    it once per context and walk as many endpoints as needed; it
    reflects the element offsets current when {!paths} runs, but not a
    later change to the design or its delays. *)
type graph

(** [graph ?delays ctx] derives the flat graph of [ctx]'s design.
    [delays] is as for {!evaluate}. *)
val graph : ?delays:Delays.t -> Context.t -> graph

(** [paths ?max_paths graph ~endpoint] walks every complete path into
    the element's data input in its assigned pass, taking only arcs
    whose head still reaches the endpoint's read net, and returns them
    worst slack first (tie order among equal slacks unspecified). Hops
    and arrivals are those {!Paths.enumerate} reports for the same path,
    bit for bit; [cluster] is read from the context's cluster table.
    [[]] when the endpoint reads no net or has no pass.
    @raise Budget_exhausted past [max_paths] (default [1_000_000])
    complete paths into this endpoint. *)
val paths : ?max_paths:int -> graph -> endpoint:int -> Paths.path list
