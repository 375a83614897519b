(** The reader layer of the line formats.

    [.hbn], [.hbc], [.hbt] and [.hbd] share doc/FORMATS.md's lexical
    rule, which {!walk} implements in place: lines are numbered from 1
    (a final ['\n'] ends one more, empty line); only [' '] separates
    tokens; a line with no token, or whose first token starts with [#],
    is skipped. BLIF has rules of its own and shares only {!read_file}
    and {!Parse_error}. *)

(** Every reader's malformed-input error. [line] is 1-based; 0 means
    the fault belongs to no single line, such as a missing directive. *)
exception Parse_error of { line : int; message : string }

(** [error line fmt ...] raises {!Parse_error} at [line]. *)
val error : int -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [read_file path] is the contents of [path].
    @raise Sys_error when it cannot be read. *)
val read_file : string -> string

(** [write_atomic path content] writes [path ^ ".tmp"] and renames it
    over [path], so no reader sees a truncated file.
    @raise Sys_error when it cannot be written. *)
val write_atomic : string -> string -> unit

(** The line being walked: token [k < count] is [text.[starts.(k)]] up
    to, not including, [text.[stops.(k)]]. The arrays are reused from
    line to line. *)
type t = private {
  text : string;
  mutable starts : int array;
  mutable stops : int array;
  mutable count : int;
  mutable line : int;
}

(** [walk text f] calls [f] on each line of [text] that has a token and
    is not a comment, in order, allocating nothing per line or token,
    and returns the number of the last line. *)
val walk : string -> (t -> unit) -> int

val token : t -> int -> string
val tokens : t -> string list

(** [is t k word] is whether token [k] spells [word]. *)
val is : t -> int -> string -> bool

(** [spells text start stop word] is whether [text.[start]] up to, not
    including, [text.[stop]] spells [word]. *)
val spells : string -> int -> int -> string -> bool

(** [float_field line name value] and [int_field line name value] read
    the field [name].
    @raise Parse_error at [line] when [value] is not a number. *)
val float_field : int -> string -> string -> float
val int_field : int -> string -> string -> int
