(** Per-cluster interface-arc timing macros.

    A verified cluster's internal graph condenses into pin-to-pin arcs
    between its boundary terminals: for every (input terminal, output
    terminal) pair connected through the cluster, the worst accumulated
    path delay in each sweep direction. Evaluating the macro replays only
    [|inputs| x |outputs|] interface arcs instead of the full per-net
    block sweeps — the element slacks Algorithm 1's transfer loop reads
    are reproduced bit-for-bit (see below) at a fraction of the work, and
    with no per-net arrays allocated at all.

    Bit-identity with {!Block} holds because the block sweeps carry each
    net's time as a (boundary time, accumulated delay) pair rounded as
    [fl(base + acc)]: the macro's folded interface delay [D] is the same
    [acc] the full sweep would reach, so [fl(A + D)] reproduces the
    block's arrival exactly. Delay folds in the forward and backward
    directions associate differently, hence the two separately stored
    delay tables.

    A macro depends only on the cluster's arc delays — not on element
    offsets, which enter at evaluation time — so offset-moving relaxation
    iterations reuse macros unchanged, and only delay mutations (what-if
    edits, redesign) invalidate them (see {!Context.invalidate_clusters}). *)

type t

val c_extractions : Hb_util.Telemetry.counter
(** Incremented once per {!extract} call ("macro.extractions"); tests
    assert single-cluster invalidation through it. *)

val extract : passes:Passes.t -> Cluster.t -> t
(** [extract ~passes cluster] condenses the cluster: one worst-delay
    sweep per boundary terminal that carries a clock edge (assertion
    edge for inputs, closure edge for outputs, read from the pass's
    element node tables). *)

val evaluate :
  t ->
  passes:Passes.t ->
  elements:Elements.t ->
  plan:Passes.plan ->
  cut:int ->
  input_slack:Hb_util.Time.t array ->
  output_slack:Hb_util.Time.t array ->
  unit
(** [evaluate macro ~passes ~elements ~plan ~cut ~input_slack
    ~output_slack] folds the macro's interface arcs for one pass and
    min-merges the element slacks into the caller's per-element
    accumulators ([input_slack] indexed like
    {!Slacks.t}[.element_input_slack], [output_slack] likewise). The
    pass's boundary times go to scratch arrays the macro owns, so one
    macro must not be evaluated by two domains at once; the slack engine
    evaluates macros on one domain, inside an analysis that holds its
    session for writing. Allocates nothing. *)
