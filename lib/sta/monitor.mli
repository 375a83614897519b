(** The live telemetry plane: HTTP endpoints over a running {!Serve}
    daemon, served by {!Hb_util.Httpd} on a loopback (by default) TCP
    port. What a fleet operator points Prometheus and a load balancer
    at; `hummingbird serve --monitor PORT` mounts it.

    Endpoints (GET only, one response per connection):
    - [/metrics] — Prometheus text exposition of {!Serve.scrape}: the
      daemon's SLO tracker (when attached) is ticked and the
      [runtime.*] gauges refreshed first, so GC/RSS/domain values and
      SLO burn are at most one scrape old.
    - [/healthz] — liveness: always 200 while the process serves HTTP,
      including during drain.
    - [/readyz] — readiness ({!Serve.readiness}): 200 [ready], or 503
      [draining] once SIGTERM drain / shutdown began, or 503
      [overloaded: queue N/N] while the daemon's scheduler queue is at
      its admission bound.
    - [/flight] — the current flight-recorder JSON document
      ({!Serve.flight_json}).
    - [/buildinfo] — JSON: name, protocol schema version, OCaml
      version, word size, OS, pid, start timestamp. *)

type t

(** [start ?addr ~port daemon] binds and starts serving immediately
    ([port] 0 picks a free port — read it back with {!port}). Everything
    an endpoint reports comes from [daemon]: its scrape, its attached
    SLO tracker and, once {!Serve.start_scheduler} ran, its scheduler
    queue. Raises [Unix.Unix_error] when the bind fails. *)
val start : ?addr:string -> port:int -> Serve.t -> t

(** The actually bound port. *)
val port : t -> int

(** Stop accepting and join the listener thread. Idempotent. *)
val stop : t -> unit
