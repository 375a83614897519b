(** JSON rendering of analysis results, for downstream tooling.

    Self-contained (no JSON library dependency): emits a stable schema —

    {v
    {
      "schema_version": 1,
      "design": "...", "period": 100.0,
      "verdict": "meets_timing" | "slow_paths",
      "worst_slack": -1.25,
      "passes": {"minimum": 12, "per_edge": 19},
      "endpoints": [ {"element": "ff2#0", "slack": 3.5}, ... ],
      "slow_nets": ["n1", ...],
      "hold_violations": [ {"element": "...", "margin": 0.4}, ... ],
      "timings": {"preprocess_s": ..., "analysis_s": ..., "constraints_s": ...}
    }
    v}

    Endpoint entries cover every element with a finite data-input slack,
    ascending by slack; endpoints that tie keep descending element id
    order. Non-finite numbers are rendered as [null]. *)

(** [report ?paths report] renders an {!Engine.report}. With [paths > 0]
    a ["paths"] array is inserted before ["timings"]: the critical path
    of each of the [paths] worst endpoints (traced in parallel when
    configured), each as
    [{"start", "end", "slack", "cluster", "cut", "hops": [{"net",
    "via", "at"}]}] with ["via": null] on the launching hop; a
    ["near_critical"] array follows, summarising the bounded k-worst
    enumeration per worst endpoint as
    [{"endpoint", "count", "worst_slack", "kth_slack"}].

    When the analysis ran with [Config.telemetry] set, a ["metrics"]
    object is inserted before ["timings"]:
    [{"counters": {name: int, ...}, "gauges": {name: float, ...},
    "spans": [{"name", "count", "wall_s", "cpu_s"}]}] — the merged
    {!Hb_util.Telemetry} snapshot of the run.

    The default ([paths = 0], telemetry off) output is unchanged from
    earlier versions apart from the leading ["schema_version"] field. *)
val report : ?paths:int -> Engine.report -> string

(** How {!add_report} lays the report out. [Pretty] is {!report}'s
    layout: one top-level member, endpoint, hold violation, path,
    near-critical entry and metric per line, a space after each [:] and
    each [,] inside a line, and a final newline. [Compact] is the wire
    layout of serve replies: no whitespace at all, and each number
    printed as {!Hb_util.Json.to_string} prints the value that
    {!Hb_util.Json.parse} reads from its pretty text, so that a
    compact report is byte for byte the pretty one parsed and printed
    by {!Hb_util.Json}. *)
type layout = Pretty | Compact

(** [add_report ?paths layout buffer report] appends the report
    {!report} renders, in [layout], to [buffer]. *)
val add_report : ?paths:int -> layout -> Buffer.t -> Engine.report -> unit

(** Version stamped into every report (and every serve-loop reply);
    consumers reject or warn on versions they don't know. *)
val schema_version : int
