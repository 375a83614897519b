(** Top-level analysis facade: the "Hummingbird run".

    Performs pre-processing (element table, clusters, Section 7 pass
    minimisation), Algorithm 1 slow-path identification, optionally
    Algorithm 2 constraint generation and the supplementary minimum-delay
    checks, and reports cpu-time per phase — the quantities of the paper's
    Table 1.

    [analyse] is the one-shot entry point; it is implemented as a
    single-query {!Session}, which is the persistent handle to reach for
    when the same design will be queried repeatedly. *)

(** Per-phase cost on both clocks. The [_seconds] fields are cpu time
    ([Sys.time]) summed across all domains — the paper's Table 1 unit;
    the [_wall_seconds] fields are elapsed real time
    ([Unix.gettimeofday]), the figure parallel cluster evaluation
    actually improves. Under [Config.parallel_jobs = 1] the two
    coincide up to scheduler noise. *)
type timings = Session.timings = {
  preprocess_seconds : float;  (** cluster generation + pass minimisation *)
  analysis_seconds : float;    (** Algorithm 1 *)
  constraints_seconds : float; (** Algorithm 2, 0 when skipped *)
  preprocess_wall_seconds : float;
  analysis_wall_seconds : float;
  constraints_wall_seconds : float;  (** 0 when skipped *)
  peak_rss_bytes : int option;
      (** process peak resident set size when the record was built
          ({!Hb_util.Rss.peak_bytes}); [None] off Linux *)
}

type report = Session.report = {
  context : Context.t;
  outcome : Algorithm1.outcome;
  constraints : Algorithm2.constraint_times option;
  hold_violations : Holdcheck.violation list;
  timings : timings;
}

(** [analyse ~design ~system ?config ?generate_constraints ?check_hold ()]
    runs the full flow. [generate_constraints] (default true) runs
    Algorithm 2 (element offsets are snapshotted around it so
    [report.context] reflects Algorithm 1's final state). [check_hold]
    (default true) runs the supplementary-constraint checks.

    When [config.telemetry] is set and {!Hb_util.Telemetry} is not
    already enabled, recording is switched on and counters reset before
    the run; the phases then record [engine.*] spans alongside the layer
    counters, readable through [Hb_util.Telemetry.snapshot] after the
    call (and surfaced by {!Json_export.report} / {!Report.summary}). *)
val analyse :
  design:Hb_netlist.Design.t ->
  system:Hb_clock.System.t ->
  ?config:Config.t ->
  ?delays:Delays.t ->
  ?generate_constraints:bool ->
  ?check_hold:bool ->
  unit ->
  report
