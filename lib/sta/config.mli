(** Analysis configuration.

    Binds the design's boundary to the clock system: which clock edge each
    non-clock primary port is timed against, and the knobs an analysis
    reads. Nothing else lives here: the serve daemon's settings are
    [hummingbird serve]'s flags, and the log threshold is the CLI's
    [--log-level]. *)

(** Timing reference of one primary port. *)
type port_timing = {
  edge : Hb_clock.Edge.t;      (** reference clock edge *)
  offset : Hb_util.Time.t;
      (** inputs: signal asserted [offset] after the edge;
          outputs: signal required no later than [offset] after the edge *)
}

type t = {
  io_clock : string option;
      (** clock that times ports without an explicit entry; [None] picks
          the first waveform of the system *)
  default_input_arrival : Hb_util.Time.t;
      (** default input offset after the io clock's pulse-0 leading edge *)
  default_output_required : Hb_util.Time.t;
      (** default output offset relative to the io clock's pulse-0 leading
          edge (the same-edge rule then grants such paths a full period) *)
  port_overrides : (string * port_timing) list;
      (** per-port timing overrides, keyed by port name *)
  max_transfer_iterations : int;
      (** hard cap on Algorithm 1/2 sweeps; the paper argues convergence
          in at most one more cycle than the longest element chain, so
          hitting this cap indicates a modelling bug and is reported *)
  partial_transfer_divisor : float;
      (** the [n > 1] of partial slack transfer; the paper leaves it free *)
  rise_fall : bool;
      (** propagate rising and falling arrivals separately (Bening et
          al. [7], used by the paper). Never more pessimistic than the
          scalar model; default [false] so the default analysis matches
          the exact path-enumeration baseline bit-for-bit *)
  multicycle : (string * int) list;
      (** multicycle exceptions: synchroniser instance name → cycle
          count n (>= 1); the endpoint's closure gains (n-1) periods of
          its own clock. An extension in the spirit of the interactive
          what-if mode; hold bounds shift with the closure (document as
          the standard endpoint-based simplification) *)
  incremental : bool;
      (** reuse cached per-(cluster, pass) block results across
          {!Slacks.compute} calls, re-evaluating only clusters touched by
          an element whose offsets moved since the last call. Results are
          bit-for-bit identical to a full recompute; disable to force the
          paper's from-scratch evaluation of every cluster on every
          iteration *)
  parallel_jobs : int;
      (** number of domains evaluating clusters concurrently inside one
          [Slacks.compute]; [1] = fully sequential, the default is
          [Domain.recommended_domain_count ()]. Cluster evaluations are
          independent, so any value yields identical results *)
  macro : bool;
      (** evaluate the intermediate slack snapshots of Algorithm 1 through
          per-cluster interface-arc timing macros ({!Macro}) instead of
          full block sweeps. Element slacks — the only data the transfer
          loop reads — are bit-identical to flat evaluation; the final
          slack picture, paths and reports are always computed flat.
          Applies to the scalar delay model only (rise/fall analysis
          falls back to flat evaluation). Default [false] *)
  telemetry : bool;
      (** record {!Hb_util.Telemetry} counters, gauges and phase spans
          during analysis; default [false]. Disabled instrumentation
          costs one atomic flag read per site. Surfaced in the JSON
          report's ["metrics"] block, {!Report.summary}, and the CLI's
          [--trace] Chrome trace output. A {!Session} created with it
          switches the process's recording on, never off *)
}

val default : t

(** [sequential] is {!default} with [incremental = false] and
    [parallel_jobs = 1]: the seed's from-scratch evaluation on one
    domain — every cluster re-evaluated on every {!Slacks.compute}, in
    cluster order, into the slack cache's rows — kept as the
    parity/benchmark baseline. *)
val sequential : t

(** Raised by {!port_timing} when the io clock cannot be resolved
    (empty clock system, or [io_clock] naming an unknown waveform).
    Classified as a build error by {!Error.of_exn} — [Config] itself
    sits below [Error] in the module graph and cannot raise the
    taxonomy directly. *)
exception Config_error of string

(** [port_timing t ~system ~port] resolves the timing reference for the
    named port.
    @raise Config_error when the io clock cannot be resolved. *)
val port_timing :
  t -> system:Hb_clock.System.t -> port:string -> direction:[ `Input | `Output ] ->
  port_timing
