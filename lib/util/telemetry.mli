(** Domain-safe metrics: monotonic counters, gauges and cpu+wall phase
    spans, collected in per-domain shards and merged on read.

    Instrumented code calls {!incr}/{!add}/{!set_gauge}/{!span}
    unconditionally; every write is guarded by a single global enabled
    flag, so with telemetry disabled (the default) the cost is one atomic
    load and a predictable branch — cheap enough for the relaxation and
    path-enumeration hot loops. When enabled, each domain writes only its
    own shard (registered once through [Domain.DLS]), so instrumentation
    is safe inside {!Pool} parallel regions without contending on shared
    cells; {!snapshot} merges the shards: counters sum, gauges take the
    maximum over the domains that set them, spans concatenate in
    chronological order.

    {!reset} and {!snapshot} are meant to run at quiescent points (no
    parallel job in flight). Calling them mid-job is memory-safe but can
    observe partially accumulated values. *)

(** Whether metric writes are recorded. Global to the process. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Zero every counter, clear every gauge and drop every recorded span,
    across all domains. Metric registrations are kept. *)
val reset : unit -> unit

(** {1 Counters} *)

(** A monotonic counter, interned by name: registering the same name
    twice yields the same counter. Intended to be created once at module
    initialisation. *)
type counter

val counter : string -> counter

(** [add c n] adds [n] (>= 0) to the calling domain's shard of [c];
    no-op when disabled. *)
val add : counter -> int -> unit

val incr : counter -> unit

(** {1 Gauges} *)

(** A last-written-value-per-domain metric, merged by maximum on read —
    suited to high-water marks (pool capacities, dirty-set sizes). *)
type gauge

val gauge : string -> gauge

val set_gauge : gauge -> float -> unit

(** {1 Histograms} *)

(** A fixed-bucket histogram, interned by name. Buckets are upper bounds
    (finite, strictly increasing), fixed at first registration; an
    implicit +Inf bucket catches everything above the last bound. Each
    domain accumulates into its own shard; {!snapshot} merges by exact
    integer bucket-count sum (deterministic) and sums the observation
    totals in domain-id order. *)
type histogram

(** [histogram ?buckets name] registers (or re-finds) [name]. Buckets
    from a later registration of the same name are ignored. Raises
    [Invalid_argument] when [buckets] is empty, non-finite, or not
    strictly increasing. Default buckets: {!latency_buckets}. *)
val histogram : ?buckets:float array -> string -> histogram

(** Upper bounds suited to request latencies in seconds: 100µs .. 10s. *)
val latency_buckets : float array

(** Upper bounds suited to work counts (clusters evaluated, paths
    enumerated): 1 .. 100&nbsp;000, roughly log-spaced. *)
val count_buckets : float array

(** [observe h v] records one observation on the calling domain's shard;
    no-op when disabled. *)
val observe : histogram -> float -> unit

(** {1 Request tags} *)

(** [with_tag tag f] runs [f ()] with the calling domain's current span
    tag set to [tag] (restored afterwards, also on raise). Every span
    recorded on this domain while the tag is set — including spans from
    nested engine phases — carries it; {!trace_json} emits it as the
    ["request_id"] span argument. Tags do not cross into {!Pool} worker
    domains. *)
val with_tag : string -> (unit -> 'a) -> 'a

(** The calling domain's current span tag, if any. *)
val current_tag : unit -> string option

(** {1 Phase spans} *)

(** One completed span: wall-clock start plus wall and cpu durations,
    tagged with the recording domain. [cpu_s] is the process-wide
    processor time elapsed during the span ([Sys.time]), so spans that
    overlap parallel work attribute the cpu of all running domains. *)
type span_record = {
  span_name : string;
  domain : int;     (** recording domain id — one trace track per domain *)
  start_s : float;  (** wall clock, absolute seconds *)
  wall_s : float;
  cpu_s : float;
  tag : string option;  (** request tag active when the span closed *)
}

(** [span name f] runs [f ()], recording a span on the calling domain's
    shard (also when [f] raises). When disabled, [f] is called directly
    with no timing taken. *)
val span : string -> (unit -> 'a) -> 'a

(** {1 Reading} *)

(** [read_counter c] sums [c] across all shards right now (takes the
    registry lock; works whether or not a snapshot is due). Serve uses
    before/after deltas of engine counters to size per-request work. *)
val read_counter : counter -> int

(** [read_counter_local c] reads [c] on the calling domain's shard only
    (no lock). For before/after deltas of work performed on this domain:
    under concurrent serving, the global sum would attribute other
    requests' work to this one. *)
val read_counter_local : counter -> int

type histogram_snapshot = {
  h_name : string;
  upper_bounds : float array;
      (** the finite bounds; an implicit +Inf bucket follows *)
  bucket_counts : int array;
      (** per-bucket (non-cumulative) counts; length = bounds + 1 *)
  sum : float;   (** sum of all observations *)
  total : int;   (** number of observations *)
}

type snapshot = {
  counters : (string * int) list;  (** every registered counter, by name *)
  gauges : (string * float) list;  (** only gauges that were set *)
  histograms : histogram_snapshot list;  (** every registered histogram *)
  spans : span_record list;        (** chronological *)
}

val snapshot : unit -> snapshot

(** [read_histogram h] merges [h] alone across the shards right now —
    the cheap single-metric read the window ring and scrape handlers
    use. Raises [Invalid_argument] on an unregistered handle. *)
val read_histogram : histogram -> histogram_snapshot

(** [quantile ~bounds ~counts q] estimates the [q]-quantile (clamped to
    [0, 1]) of a bucketed distribution: [counts] are non-cumulative
    per-bucket counts, length [Array.length bounds + 1] (the final slot
    is the +Inf bucket). Linear interpolation inside the target bucket;
    an answer landing in the +Inf bucket reports the last finite bound
    (a floor). [None] when there are no observations. *)
val quantile : bounds:float array -> counts:int array -> float -> float option

(** {1 Rolling windows}

    A fixed-slot ring of cumulative histogram captures. Ticks record a
    boundary; windowed statistics are the delta between a fresh capture
    and the oldest retained boundary, so the window covers at most
    [slots * slot_seconds] of history. Ticks are driven by the caller
    (scrape handlers, the SLO tracker, periodic dumps) — an idle window
    simply spans further back. Thread-safe. *)

type window

(** [window ?slots ?slot_seconds ?ratio h] makes a window over [h]
    (default 60 slots of 1s) and captures the baseline boundary
    immediately. [ratio] names a (numerator, denominator) counter pair
    — e.g. (errors, requests) — tracked at each boundary for
    {!window_ratio}. Raises [Invalid_argument] when [slots < 2] or
    [slot_seconds <= 0]. *)
val window :
  ?slots:int ->
  ?slot_seconds:float ->
  ?ratio:counter * counter ->
  histogram ->
  window

(** Record a boundary if at least [slot_seconds] elapsed since the last
    one; otherwise a no-op. *)
val window_tick : window -> unit

(** Record a boundary unconditionally (benches bracket a load with
    forced ticks so the window covers exactly that load). *)
val window_force_tick : window -> unit

(** The [q]-quantile of the observations inside the window ({!quantile}
    over the delta); [None] when the window saw none. *)
val window_quantile : window -> float -> float option

(** numerator/denominator delta over the window; [None] when the
    denominator did not move or no [ratio] was given. *)
val window_ratio : window -> float option

(** Seconds between the oldest retained boundary and now. *)
val window_span : window -> float option

(** Observations of the histogram inside the window. *)
val window_observations : window -> int

(** {1 Runtime sampler}

    [sample_runtime ()] refreshes the [runtime.*] gauges from
    [Gc.quick_stat] ([gc_minor_words], [gc_promoted_words],
    [gc_major_words], [gc_minor_collections], [gc_major_collections],
    [gc_compactions], [gc_heap_words], [gc_top_heap_words]),
    {!Hb_util.Rss} ([rss_bytes], [rss_peak_bytes], best-effort) and the
    shard registry ([runtime.domains]: domains that have recorded
    telemetry). Call it on scrape, so exported values are at most one
    scrape old: the serve daemon's one scrape ([Hb_sta.Serve.scrape],
    behind the [metrics] method, the monitor's [/metrics] and the
    periodic metrics dump) does. No-op while disabled. *)
val sample_runtime : unit -> unit

(** [prometheus snapshot] renders the counters, gauges and histograms in
    Prometheus text exposition format (version 0.0.4): names prefixed
    [hb_] with non-identifier characters mapped to [_], counters
    suffixed [_total], histograms as cumulative [_bucket{le="..."}]
    series ending in [+Inf] plus [_sum]/[_count]. Spans are not
    exposed. *)
val prometheus : snapshot -> string

(** [aggregate_spans snapshot] folds spans by name, preserving first-seen
    order: [(name, count, total_wall_s, total_cpu_s)]. *)
val aggregate_spans : snapshot -> (string * int * float * float) list

(** [trace_json snapshot] renders the spans as Chrome trace-event JSON
    (the [{"traceEvents": [...]}] object form) loadable in
    [chrome://tracing] or Perfetto: one complete ("ph": "X") event per
    span with microsecond timestamps relative to the earliest span, one
    named thread track per domain, and the cpu time (plus the request
    tag, when one was set) of each span under ["args"]. *)
val trace_json : snapshot -> string
