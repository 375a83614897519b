(** Hitchcock-style block evaluation of one cluster during one pass
    (paper, Section 7, equations (1) and (2)).

    Given the broken-open time axis of a pass and the current element
    offsets, computes per-net signal ready times (forward sweep, eq. 1),
    required times (backward sweep) and hence node slacks. "False paths"
    are not discarded — the paper chooses the block method's speed and
    accepts its safe pessimism.

    Worst-delay sweeps associate each net's time as a source-tagged
    (boundary time, accumulated path delay) pair rounded once per step,
    so per-net results agree bit-for-bit with evaluating the same cluster
    through {!Macro}'s condensed interface arcs. *)

(** Arrival-time model. [`Scalar] propagates one (worst) arrival per net;
    [`Rise_fall] propagates rising and falling arrivals separately with
    arc unateness (Bening et al. [7], which the paper adopts) — never more
    pessimistic than [`Scalar], and strictly less so through inverting
    chains with asymmetric rise/fall delays. *)
type mode = [ `Scalar | `Rise_fall ]

type result = {
  ready : Hb_util.Time.t array;
      (** latest arrival per local net — under [`Rise_fall] this is
          [max(ready_rise, ready_fall)]; [-inf] where no signal arrives *)
  ready_rise : Hb_util.Time.t array;
      (** latest rising arrival; equals [ready] in [`Scalar] mode *)
  ready_fall : Hb_util.Time.t array;
      (** latest falling arrival; equals [ready] in [`Scalar] mode *)
  min_ready : Hb_util.Time.t array;
      (** earliest arrival per local net; [+inf] where none; used by the
          supplementary (minimum-delay) checks *)
  required : Hb_util.Time.t array;
      (** required time per local net; [+inf] where unconstrained in this
          pass. The backward sweep always uses worst arc delays, so
          internal required times stay safe in both modes. *)
}

(** [evaluate ~passes ~elements ~cluster ~cut ?mode ()] runs both sweeps
    for the given cluster in the pass identified by [cut]. Only output
    terminals assigned to [cut] in the cluster's plan contribute required
    times; the slack of the others is "set to a large number" exactly as
    the paper prescribes. [mode] defaults to [`Scalar]. *)
val evaluate :
  passes:Passes.t ->
  elements:Elements.t ->
  cluster:Cluster.t ->
  cut:int ->
  ?mode:mode ->
  unit ->
  result

(** [create_result ~nets] allocates a result buffer for a cluster of
    [nets] local nets, ready to pass to {!evaluate_into}. *)
val create_result : nets:int -> result

(** [evaluate_into ~passes ~elements ~cluster ~cut ~mode out] is
    {!evaluate} writing into the caller-owned buffer [out] (every array
    is fully overwritten). Reusing one buffer per (cluster, pass) across
    relaxation iterations removes the five per-call array allocations
    from the hot loop; the sweeps themselves allocate nothing. Boundary
    times come from the pass tables ({!Passes.t}[.linear] and the
    element node arrays) and the elements' cached offsets, so the work
    is O(cluster).
    @raise Invalid_argument when [out] was sized for a different cluster. *)
val evaluate_into :
  passes:Passes.t ->
  elements:Elements.t ->
  cluster:Cluster.t ->
  cut:int ->
  mode:mode ->
  result ->
  unit

(** [assertion_time passes element ~cut] places the element's effective
    output assertion on the pass's time axis —
    [linear.(cut * node_count + node) +. offsets.assertion], the sum the
    sweeps form — or [None] when the element has no assertion edge. *)
val assertion_time :
  Passes.t -> Hb_sync.Element.t -> cut:int -> Hb_util.Time.t option

(** [closure_time passes element ~cut] likewise for the effective input
    closure. *)
val closure_time :
  Passes.t -> Hb_sync.Element.t -> cut:int -> Hb_util.Time.t option
