(** The batch/daemon front end: newline-delimited JSON requests over a
    channel, a registry of shared {!Session}s behind them.

    Protocol (version {!Json_export.schema_version}): each request is a
    single-line JSON object

    {v
    {"id": 7, "method": "analyse", "params": {"paths": 3}}
    v}

    and each reply a single line

    {v
    {"schema_version": 1, "id": 7, "status": "ok", "result": {...}}
    {"schema_version": 1, "id": 8, "status": "error",
     "error": {"code": "timeout", "message": "..."}}
    v}

    The envelope is unchanged from the single-client daemon — concurrent
    serving added no fields and bumped no version. Two new error codes
    exist: [overloaded] (admission control refused the request — the
    bounded queue was full) and [shutting_down] (the request was queued
    or received after shutdown began). Both are immediate structured
    replies, never silent drops.

    Methods: [ping], [load] (netlist/clocks/timing paths, or the name
    of a registered ["generator"]), [analyse], [edit] (a ["commands"]
    list of typed edit objects, applied as one atomic batch),
    [set_delay], [scale_delay], [annotate] ([text] or [file]) and
    [set_offset] (one edit command each, decoded like an [edit] command
    and answered with a method-specific reply), [paths], [constraints],
    [hold], [metrics], [flight], [sleep] (test hook) and [shutdown]. A request may carry ["schema_version"]: a value the
    server doesn't speak is rejected with code ["schema_version"];
    absent means current. A request-level ["timeout"] (seconds)
    overrides the server default; budgets are deadline-based
    ({!Hb_util.Timeout}), checked at engine pass boundaries, and
    per-domain — safe under concurrent execution.

    {2 Session registry}

    [load] resolves through a registry keyed by the load parameters
    (source, timing file, jobs, telemetry, macro, delay model): a second
    client loading the same design binds to the {e same} preprocessed
    session instead of building its own — the reply carries
    ["shared": true] and [serve.sessions_shared] counts the hit. Each
    resident session carries a writer-preferring {!Hb_util.Rwlock}:
    queries answered entirely from the session's caches
    ({!Session.is_cached}) run concurrently under the read lock;
    anything that mutates session state — delay/offset edits, and the
    first query after one — serializes under the write lock. Sessions
    no client is bound to are evicted least-recently-used once the
    registry exceeds [max_sessions] or the process RSS exceeds
    [memory_budget_mb] ([serve.session_evictions];
    {!Hb_util.Rss.current_bytes}, best-effort). Loads serialize against
    each other (preprocessing happens under the registry lock); queries
    on already-resident sessions do not wait for them.

    Every request has a request id — the top-level ["request_id"] string
    when the client supplies one, else a generated ["r<n>"] — echoed in
    the reply envelope, carried by the [serve.request] access-log line
    (request_id/method/outcome/wall_ms/cpu_ms at Info), stamped onto
    every telemetry span the request records (so [--trace] output ties
    phases back to requests), and kept in the flight-recorder ring. The
    ring and {!flight_json} are mutex-guarded snapshots, safe under
    concurrent requests (the log ring and telemetry shards already
    were).

    [metrics] takes an optional ["format"] param: ["json"] (the
    counters/gauges/histograms object) or ["prometheus"] (the result is
    one string of Prometheus text exposition); the default is chosen by
    [create]'s [prometheus] flag. [flight] returns the flight-recorder
    document (recent request summaries plus recent log events).

    With telemetry enabled, each request feeds the
    [serve.request_seconds] latency histogram,
    [serve.clusters_evaluated] (before/after delta of the engine's
    cluster-evaluation counter, read on the executing domain's shard
    only) and [serve.paths_enumerated] (paths returned by each [paths]
    request).

    The loop is exit-free by construction: {e every} failure — malformed
    JSON ([bad_request]), a query before [load] ([no_design]), analysis
    errors (codes from {!Error.code}), a request exceeding its
    wall-clock budget ([timeout]), even an unrecognised exception
    ([internal]) — becomes a structured error reply, never a backtrace
    or an exit. A timed-out analysis leaves the session consistent (its
    slack cache is invalidated and baseline offsets restored by
    {!Session}); the daemon keeps serving.

    Telemetry: [serve.requests], [serve.errors], [serve.timeouts] and
    [serve.rejected] count the request stream; [serve.sessions],
    [serve.queue_depth] and [serve.active_clients] gauge the registry,
    the scheduler queue and the connection layer.

    Latency accounting: every scheduled request is timestamped at
    enqueue and dequeue, so [serve.request_seconds] records the
    client-observed latency (queue wait + service) and
    [serve.queue_wait_seconds] the queue-wait share alone; the
    [serve.request] access-log line and flight-recorder summaries carry
    the same split as [wall_ms]/[queue_ms]/[service_ms]. The stdin loop
    has no queue — its [queue_ms] is 0 and the queue-wait histogram
    stays silent.

    {!Slo} tracks windowed p50/p99 and error rate against optional
    budgets; {!attach_slo} makes every [metrics] reply and scrape tick
    the tracker and (JSON format) include its status. {!readiness} is
    the load-balancer probe behind the monitor's [/readyz]. *)

type t

(** {2 SLO tracking} *)

(** Windowed latency/error objectives over the live registry: a
    {!Hb_util.Telemetry.window} over [serve.request_seconds] with the
    (errors, requests) counter pair. [tick] refreshes the exported
    [slo.window_p50_ms], [slo.window_p99_ms], [slo.window_error_rate],
    [slo.p99_burn], [slo.error_burn] and [slo.breached] gauges, so any
    Prometheus exposition taken afterwards carries current burn
    status. Burn = windowed value / budget; breached when any burn
    exceeds 1. *)
module Slo : sig
  type t

  type status = {
    window_seconds : float option;  (** history the window spans *)
    observations : int;             (** requests inside the window *)
    p50_ms : float option;
    p99_ms : float option;
    error_rate : float option;      (** errors / requests in-window *)
    p99_budget_ms : float option;
    error_budget : float option;
    p99_burn : float option;        (** p99_ms / budget *)
    error_burn : float option;
    breached : bool;                (** any burn > 1.0 *)
  }

  (** [create ?p99_budget_ms ?error_budget ?slots ?slot_seconds ()] —
      default window: 60 slots of 1s. Omitted budgets mean the tracker
      reports windowed values but never breaches on that axis. *)
  val create :
    ?p99_budget_ms:float ->
    ?error_budget:float ->
    ?slots:int ->
    ?slot_seconds:float ->
    unit ->
    t

  (** Advance the window if a slot boundary is due, refresh the [slo.*]
      gauges, and return the current status. Thread-safe; scrape
      handlers call it on every scrape. *)
  val tick : t -> status

  (** Status without advancing the window or touching gauges. *)
  val status : t -> status

  val status_json : status -> Hb_util.Json.t
end

(** [attach_slo t slo] wires the tracker into [metrics] replies: every
    [metrics] request ticks it, and the JSON format reply gains an
    ["slo"] status object. *)
val attach_slo : t -> Slo.t -> unit

(** [create ?timeout_seconds ?library ?prometheus ?dump ?generators
    ?max_sessions ?memory_budget_mb ()] prepares a daemon with no design
    loaded. [timeout_seconds] (default 0 = unlimited) bounds each
    request; [library] (default [Hb_cell.Library.default ()]) resolves
    cells for [load]; [prometheus] (default false) makes Prometheus text
    the default [metrics] exposition; [dump] receives the
    flight-recorder JSON document after every error reply and on IO
    failure in {!run} (exceptions from [dump] are swallowed).
    [generators] (default [[]]) registers named built-in designs [load]
    can build in-process via its ["generator"] param instead of reading
    netlist/clocks files — the CLI passes the workload catalog here,
    keeping this library free of a dependency on the generators. [load]
    also accepts a boolean ["macro"] param selecting hierarchical
    timing-macro analysis. [max_sessions] (default 8; 0 = unlimited) and
    [memory_budget_mb] (default 0 = unlimited) bound the session
    registry — see the eviction policy above. *)
val create :
  ?timeout_seconds:float ->
  ?library:Hb_cell.Library.t ->
  ?prometheus:bool ->
  ?dump:(string -> unit) ->
  ?generators:(string * (unit -> Hb_netlist.Design.t * Hb_clock.System.t)) list ->
  ?max_sessions:int ->
  ?memory_budget_mb:int ->
  unit ->
  t

(** One connection's server-side identity: which registry session its
    [load] bound it to. A client processes one request at a time (the
    protocol is strict request-reply per connection), so the handle
    needs no locking of its own. *)
type client

(** [client t] registers a fresh connection handle. *)
val client : t -> client

(** [release_client t c] drops the client's session binding (making the
    session evictable once no other client holds it). Call when the
    connection closes. *)
val release_client : t -> client -> unit

(** [set_active_clients n] publishes the [serve.active_clients] gauge —
    the connection layer calls it on connect/disconnect. *)
val set_active_clients : int -> unit

(** The flight-recorder document, on demand: ring of the last 64 request
    summaries (oldest first: ts/request_id/method/outcome/wall_ms/cpu_ms)
    plus the last 256 structured-log events, as one JSON string. Also
    what [dump] receives and the [flight] method returns. Safe to call
    concurrently with request execution. *)
val flight_json : t -> string

(** [handle_line ?client ?queue_wait_s t line] processes one request
    line and returns the reply line (no trailing newline). Never
    raises. [client] defaults to a daemon-owned handle, preserving the
    single-client behaviour for direct callers (tests, the stdin
    loop). [queue_wait_s] is how long the line waited in the scheduler
    queue before execution began (the worker loop passes it): it is
    added to the reported [wall_ms], fed to [serve.queue_wait_seconds]
    and logged as [queue_ms]. *)
val handle_line : ?client:client -> ?queue_wait_s:float -> t -> string -> string

(** [reject_line t ~code ~message line] builds the structured error
    reply for a request that will not execute ([overloaded],
    [shutting_down]): the line is parsed only to echo [id]/[request_id].
    Recorded in the flight ring and access log; [serve.rejected] counts
    [overloaded] rejections. Never raises. *)
val reject_line : t -> code:string -> message:string -> string -> string

(** [finished t] is true once a [shutdown] request has been served or
    {!request_stop} called. *)
val finished : t -> bool

(** [request_stop t] flags shutdown without a client request — the
    connection layer's SIGTERM hook. Subsequent {!submit}s (and queued
    requests) get [shutting_down] replies; in-flight requests finish. *)
val request_stop : t -> unit

(** [shutdown_sessions t] closes every registered session (under its
    write lock) and tears down the shared domain pool. The connection
    layer calls it after the scheduler has stopped; with no scheduler
    attached, the [shutdown] method does this itself. Idempotent. *)
val shutdown_sessions : t -> unit

(** {2 The request scheduler}

    The concurrent daemon's execution layer: connection readers
    {!submit} raw request lines into a bounded queue
    ({!Hb_util.Squeue}), worker domains execute them and hand the reply
    back. Admission control is the queue bound — a full queue is an
    immediate [overloaded] reply. One request per client is in flight at
    a time (the reader thread blocks in {!submit}), which is what makes
    the client handle lock-free. *)

type scheduler

(** [start_scheduler t ~workers ~queue_capacity] spawns [workers]
    (>= 1, clamped) worker domains over a queue of [queue_capacity].
    With more than one worker, sessions loaded thereafter have their
    analysis pools clamped to one job (an explicit ["jobs"] > 1 becomes
    [bad_request]); request-level concurrency replaces pool-level
    parallelism, and deadline budgets stay on the executing domain. *)
val start_scheduler : t -> workers:int -> queue_capacity:int -> scheduler

(** [submit sched client line] enqueues the request and blocks until its
    reply is ready. Returns an [overloaded] reply when the queue is
    full, a [shutting_down] reply once shutdown has begun. Never
    raises. *)
val submit : scheduler -> client -> string -> string

(** [stop_scheduler sched] closes the queue, lets workers drain what was
    already queued (answered with [shutting_down] if {!request_stop} was
    called, executed normally otherwise) and joins them. *)
val stop_scheduler : scheduler -> unit

(** Racy snapshots of the scheduler queue — gauges and probes only. *)
val queue_depth : scheduler -> int

val queue_capacity : scheduler -> int

(** {2 Readiness}

    The answer a load balancer needs before routing another request
    here; the monitor plane's [/readyz] maps [Ready] to 200 and the
    rest to 503. *)

type readiness =
  | Ready
  | Draining
      (** shutdown has begun ({!request_stop} / SIGTERM / a [shutdown]
          request); in-flight work still completes *)
  | Saturated of { depth : int; capacity : int }
      (** the scheduler queue is at its admission bound — the next
          request would be answered [overloaded] *)

(** [readiness ?scheduler t]. Without a scheduler (the stdin loop)
    saturation cannot happen; draining still can. *)
val readiness : ?scheduler:scheduler -> t -> readiness

(** [run t ic oc] reads requests from [ic] and writes one flushed reply
    line each to [oc], until [shutdown] or end of input; every session
    and the shared domain pool are torn down on the way out. The
    single-channel (stdin) mode — no scheduler involved. *)
val run : t -> in_channel -> out_channel -> unit
