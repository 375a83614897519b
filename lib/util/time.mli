(** Time scalars.

    All times in Hummingbird are expressed in nanoseconds as [float]s.
    Because offsets are repeatedly adjusted by slack-transfer operations,
    comparisons must tolerate accumulated rounding; every comparison in the
    analyser goes through this module. *)

type t = float

(** Comparison tolerance in nanoseconds. *)
val eps : t

val zero : t

(** A value standing in for "no constraint" (used for slacks of cluster
    outputs that are not analysed during a pass). *)
val infinity : t

val neg_infinity : t

(** [equal a b] is true when [a] and [b] differ by at most {!eps}. *)
val equal : t -> t -> bool

(** [lt a b] is true when [a] is smaller than [b] by more than {!eps}. *)
val lt : t -> t -> bool

(** [le a b] is [lt a b || equal a b]. *)
val le : t -> t -> bool

(** [gt a b] is [lt b a]. *)
val gt : t -> t -> bool

(** [ge a b] is [le b a]. *)
val ge : t -> t -> bool

(** [is_negative t] is [lt t zero]; used for "slack is a violation". *)
val is_negative : t -> bool

(** [is_positive t] is [gt t zero]. *)
val is_positive : t -> bool

(** [is_finite t] is false for both infinities and NaN. *)
val is_finite : t -> bool

(** [min a b] is [if a <= b then a else b] and [max a b] is
    [if a >= b then a else b], on floats: the same result as
    [Stdlib.min]/[Stdlib.max], NaN and signed zeros included, without
    polymorphic comparison. *)
val min : t -> t -> t
val max : t -> t -> t

(** [clamp ~lo ~hi t] restricts [t] to the closed interval [[lo, hi]].
    Raises [Invalid_argument] when [lo > hi] beyond tolerance. *)
val clamp : lo:t -> hi:t -> t -> t

(** [modulo t ~period] reduces [t] into [[0, period)). [period] must be
    positive. *)
val modulo : t -> period:t -> t

(** Pretty-printer rendering e.g. ["12.500 ns"], with infinities rendered as
    ["+inf"] / ["-inf"]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
