(** Whole-design node slacks under the current element offsets.

    Runs the block evaluation for every cluster and pass and aggregates:

    - per synchronising-element terminal slacks — the quantities the
      slack-transfer algorithms move around;
    - per-net slacks, ready and required times for reports and constraint
      generation. Pass-local times are converted back to absolute offsets
      within the overall clock period, taken from the pass in which the
      net's slack is worst. *)

type t = {
  element_input_slack : Hb_util.Time.t array;
      (** per element id: node slack at its data-input terminal, i.e. the
          minimum over all combinational paths converging there; [+inf]
          when nothing constrains it *)
  element_output_slack : Hb_util.Time.t array;
      (** per element id: node slack at its output terminal — minimum over
          the paths emanating from it *)
  net_slack : Hb_util.Time.t array;
      (** per global net id: worst node slack seen in any pass *)
  net_ready : Hb_util.Time.t array;
      (** per global net id: signal ready time on the broken-open axis of
          the net's worst pass, offset by that pass's origin (subtract
          multiples of the overall period to place it inside the clock
          period); [nan] when no signal arrives *)
  net_required : Hb_util.Time.t array;
      (** per global net id: required time, same convention — so
          [required - ready] is always the net slack of that pass *)
  worst : Hb_util.Time.t;  (** minimum finite slack over all terminals *)
}

(** [compute ?force ctx] evaluates every cluster pass at the current
    offsets, under the configuration's arrival model ([`Rise_fall] when
    [Config.rise_fall] is set, [`Scalar] otherwise).

    Block results live in the context's slack cache ({!Context.cache}).
    When [Config.incremental] is set (the default), a call re-evaluates
    only the dirty clusters: those incident to an element whose offsets
    moved since the previous call, and those invalidated or rebuilt by
    an edit. With it off, every call re-evaluates every cluster, as the
    paper's from-scratch evaluation does ([Config.sequential]). With
    [Config.parallel_jobs > 1] the dirty
    clusters are evaluated concurrently on a domain pool. Both
    optimisations are bit-for-bit neutral: cluster evaluations read only
    immutable pass data and the incident elements' offsets, write
    disjoint buffers, and the final aggregation always runs sequentially
    in cluster order.

    [force] (default [false]) re-evaluates every cluster — the escape
    hatch used by parity tests to compare the incremental path against a
    from-scratch recompute. *)
val compute : ?force:bool -> Context.t -> t

(** [compute_elements ctx ~input_slack ~output_slack] is an
    element-only snapshot at the current offsets: the element slacks and
    [worst] of {!compute}, bit for bit, written into the caller's two
    buffers (one slot per element; previous contents are overwritten).
    The returned record's element arrays {e are} those buffers and its
    net-level arrays are empty (length 0). Block results come through
    the same incremental cluster cache as {!compute}, so a following
    {!compute} at unchanged offsets re-evaluates nothing. A snapshot
    allocates a constant amount whatever the design size.
    @raise Invalid_argument when a buffer's length is not the element
    count. *)
val compute_elements :
  Context.t ->
  input_slack:Hb_util.Time.t array ->
  output_slack:Hb_util.Time.t array ->
  t

(** [compute_transfer ctx ~input_slack ~output_slack] is the slack
    snapshot used between slack transfers inside Algorithm 1: an
    element-only snapshot in the caller's buffers, as for
    {!compute_elements}. When [Config.macro] is set (and the scalar
    arrival model is in effect), it evaluates through per-cluster
    interface-arc timing macros ({!Macro}) instead of the block sweeps;
    the element slacks and [worst] are the same bit for bit. Otherwise
    it is {!compute_elements}. The final slack picture an analysis
    reports always comes from {!compute}.
    @raise Invalid_argument when a buffer's length is not the element
    count. *)
val compute_transfer :
  Context.t ->
  input_slack:Hb_util.Time.t array ->
  output_slack:Hb_util.Time.t array ->
  t

(** [all_positive t] is true when every terminal slack is strictly
    positive — the system "behaves as intended". *)
val all_positive : t -> bool
