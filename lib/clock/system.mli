(** Complete clocking schemes.

    A system bundles the overall period with the set of waveforms and can
    enumerate every clock edge in one overall period, place edges in time
    and parse/print the [.hbc] clock description format:

    {v
    # two-phase non-overlapping clock
    period 100
    clock phi1 multiplier 1 rise 0 width 40
    clock phi2 multiplier 1 rise 50 width 40
    v} *)

type t = private {
  overall_period : Hb_util.Time.t;
  waveforms : Waveform.t list;
}

(** [make ~overall_period waveforms] validates that every pulse fits and
    that waveform names are unique.
    @raise Invalid_argument otherwise. *)
val make : overall_period:Hb_util.Time.t -> Waveform.t list -> t

(** [find t name] looks a waveform up by name. *)
val find : t -> string -> Waveform.t option

(** @raise Not_found when absent. *)
val find_exn : t -> string -> Waveform.t

(** [edge_time t edge] is the absolute time of [edge] within the overall
    period.
    @raise Not_found when the edge references an unknown clock.
    @raise Invalid_argument when the pulse index is out of range. *)
val edge_time : t -> Edge.t -> Hb_util.Time.t

(** [edges t] is every clock edge of one overall period, sorted by
    (time, clock name, polarity) — the node ordering of the clock-edge
    graph. *)
val edges : t -> (Edge.t * Hb_util.Time.t) array

(** [with_overall_period t period] rescales nothing; it re-validates the
    same waveforms against a new overall period (used by the what-if
    example to stretch and shrink the clock). *)
val with_overall_period : t -> Hb_util.Time.t -> t

(** {!Hb_util.Text.Parse_error}. [line] 0 means the failure is not tied
    to a single line (a missing [period] directive or a cross-waveform
    validation error). *)
exception Parse_error of { line : int; message : string }

(** [parse text] reads the [.hbc] format.
    @raise Parse_error on malformed input. *)
val parse : string -> t

val parse_file : string -> t

(** [to_string t] renders [.hbc] text that {!parse} accepts. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
