(** The [.hbt] timing-constraint format: a textual carrier for
    {!Config.t}, giving the command line access to per-port timing
    references and analysis knobs.

    {v
    # analysis configuration
    io-clock phi1
    default-input-arrival 2.0
    default-output-required 0.0
    rise-fall on
    max-iterations 200
    partial-divisor 2
    multicycle u42 2
    input din clock phi1 trailing pulse 0 offset 3.5
    output dout clock phi2 leading pulse 0 offset -2.0
    v}

    [input]/[output] lines override the timing reference of one named
    port; the remaining directives set the global knobs, one directive
    per {!Config.t} field (doc/FORMATS.md gives the grammar). Unmentioned
    fields keep their values from the base configuration. *)

(** [parse ?base text] overlays the directives in [text] on [base]
    (default {!Config.default}).
    @raise Hb_util.Text.Parse_error on malformed input. *)
val parse : ?base:Config.t -> string -> Config.t

val parse_file : ?base:Config.t -> string -> Config.t

(** [to_string config] renders a [.hbt] document that {!parse} reads back
    to an equivalent configuration. *)
val to_string : Config.t -> string
