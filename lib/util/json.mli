(** A minimal self-contained JSON value type with a strict parser and a
    compact single-line printer.

    Exists for the daemon front end: requests arrive as newline-delimited
    JSON and replies leave as one line each. A reply envelope is printed
    once into one buffer ({!add}); a method whose result is a large
    document, like the {!Hb_sta.Json_export} report, appends that text
    in the same compact form straight into the envelope's buffer, so it
    is never parsed back. Deliberately tiny — no streaming, no
    number-precision preservation beyond [float] — and free of
    third-party dependencies, like the rest of the repo. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** first-seen key order is preserved *)

exception Parse_error of { position : int; message : string }
(** [position] is a 0-based byte offset into the input. *)

(** [parse text] reads exactly one JSON value spanning the whole input
    (surrounding whitespace allowed). Lists and objects nest at most 512
    levels deep.
    @raise Parse_error on malformed input or trailing garbage, and at the
    bracket or brace that opens a 513th level. *)
val parse : string -> t

(** [parse_result text] is {!parse} with the error as data. *)
val parse_result : string -> (t, string) result

(** [to_string v] renders [v] on a single line with no spaces after
    separators. Numbers that are integral (and within [2^53]) print
    without a fractional part; non-finite numbers print as [null]. *)
val to_string : t -> string

(** [add buffer v] appends the text {!to_string} gives for [v]. *)
val add : Buffer.t -> t -> unit

(** [add_number buffer f] appends the text {!to_string} gives for
    [Number f]: [null] when [f] is not finite, [%.0f] when it is integral
    and within [2^53], else [%.12g] when that reads back as [f] and
    [%.17g] when it does not. *)
val add_number : Buffer.t -> float -> unit

(** [add_quoted buffer s] appends the JSON string literal for [s] to
    [buffer], quotes included, with the body {!escape} gives. The one
    string writer of {!to_string}, {!Log}'s JSON lines,
    {!Telemetry.trace_json} and the analysis report writer. *)
val add_quoted : Buffer.t -> string -> unit

(** [escape s] is the body of the JSON string literal for [s], without
    its quotes: double quote, backslash, newline, tab and carriage return
    get their two-character escapes, every other byte below 0x20 a
    [\u00xx] escape (lower-case hex), and all other bytes pass through.
    The JSON writers do not call it: they append through {!add_quoted}. *)
val escape : string -> string

(** {1 Accessors} *)

(** [member name v] is the value of field [name] when [v] is an object
    containing it. *)
val member : string -> t -> t option

val to_float : t -> float option
val to_int : t -> int option
val to_bool : t -> bool option
val to_text : t -> string option
