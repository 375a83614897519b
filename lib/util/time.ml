type t = float

let eps = 1e-9
let zero = 0.0
let infinity = Stdlib.infinity
let neg_infinity = Stdlib.neg_infinity
let[@inline] equal a b = Float.abs (a -. b) <= eps || (a = b)
let[@inline] lt a b = a +. eps < b
let[@inline] le a b = lt a b || equal a b
let[@inline] gt a b = lt b a
let[@inline] ge a b = le b a
let[@inline] is_negative t = lt t zero
let[@inline] is_positive t = gt t zero
let[@inline] is_finite t = Float.is_finite t
(* Float-typed, so no call goes through polymorphic compare on boxed
   floats. They return what [Stdlib.min]/[Stdlib.max] return on floats:
   polymorphic [<=]/[>=] is false against NaN and treats the two zeros
   as equal, as the float comparisons do. *)
let[@inline] min (a : t) b = if a <= b then a else b
let[@inline] max (a : t) b = if a >= b then a else b

let clamp ~lo ~hi t =
  if lt hi lo then
    invalid_arg
      (Printf.sprintf "Time.clamp: empty interval [%g, %g]" lo hi)
  else if t < lo then lo
  else if t > hi then hi
  else t

let modulo t ~period =
  if period <= 0.0 then invalid_arg "Time.modulo: period must be positive";
  let r = Float.rem t period in
  let r = if r < 0.0 then r +. period else r in
  (* Guard against [Float.rem] returning exactly [period] after the
     correction when [t] is a tiny negative number. *)
  if r >= period then r -. period else r

let pp ppf t =
  if t = Stdlib.infinity then Format.pp_print_string ppf "+inf"
  else if t = Stdlib.neg_infinity then Format.pp_print_string ppf "-inf"
  else Format.fprintf ppf "%.3f ns" t

let to_string t = Format.asprintf "%a" pp t
