type params = {
  setup : Hb_util.Time.t;
  d_cz : Hb_util.Time.t;
  d_dz : Hb_util.Time.t;
  pulse_width : Hb_util.Time.t;
  control_delay : Hb_util.Time.t;
}

let validate p =
  if p.setup < 0.0 then invalid_arg "Model.validate: negative setup";
  if p.d_cz < 0.0 then invalid_arg "Model.validate: negative d_cz";
  if p.d_dz < 0.0 then invalid_arg "Model.validate: negative d_dz";
  if p.pulse_width <= 0.0 then invalid_arg "Model.validate: pulse width must be positive";
  if p.control_delay < 0.0 then invalid_arg "Model.validate: negative control delay"

let[@inline] is_transparent = function
  | Hb_cell.Kind.Transparent_latch | Hb_cell.Kind.Tristate_driver -> true
  | Hb_cell.Kind.Edge_ff -> false

(* Each formula is written once, here, and inlined into the state writes
   at the end of this unit, so a write keeps every intermediate float
   unboxed. The [Hb_util.Time] and [Hb_util.Interval] helpers they stand
   for are named beside them. *)

let[@inline] lo kind p =
  if is_transparent kind then -.(p.pulse_width +. p.d_dz) else 0.0

let[@inline] hi kind p = if is_transparent kind then -.p.d_dz else 0.0

let o_dz_interval kind p = Hb_util.Interval.make ~lo:(lo kind p) ~hi:(hi kind p)
let initial_o_dz kind p = hi kind p

let[@inline] o_zd kind p ~o_dz =
  if is_transparent kind then p.pulse_width +. o_dz +. p.d_dz else 0.0

(* Hb_util.Time.min (-.p.setup) o_dz for transparent elements *)
let[@inline] closure_offset kind p ~o_dz =
  let setup = -.p.setup in
  if is_transparent kind then (if setup <= o_dz then setup else o_dz) else setup

(* Hb_util.Time.max (p.control_delay +. p.d_cz) (o_zd kind p ~o_dz) *)
let[@inline] assertion_offset kind p ~o_dz =
  let control = p.control_delay +. p.d_cz and data = o_zd kind p ~o_dz in
  if control >= data then control else data

(* Hb_util.Interval.headroom_down o_dz (o_dz_interval kind p) *)
let[@inline] forward_headroom kind p ~o_dz =
  let room = o_dz -. lo kind p in
  if 0.0 >= room then 0.0 else room

(* Hb_util.Interval.headroom_up o_dz (o_dz_interval kind p) *)
let[@inline] backward_headroom kind p ~o_dz =
  let room = hi kind p -. o_dz in
  if 0.0 >= room then 0.0 else room

type offsets = {
  mutable o_dz : float;
  mutable assertion : float;
  mutable closure : float;
  mutable forward_headroom : float;
  mutable backward_headroom : float;
}

let[@inline] refresh kind p ~extra_closure_delay o =
  let o_dz = o.o_dz in
  o.assertion <- assertion_offset kind p ~o_dz;
  o.closure <- extra_closure_delay +. closure_offset kind p ~o_dz;
  o.forward_headroom <- forward_headroom kind p ~o_dz;
  o.backward_headroom <- backward_headroom kind p ~o_dz

let initial_offsets kind p ~extra_closure_delay =
  let o =
    { o_dz = initial_o_dz kind p; assertion = 0.0; closure = 0.0;
      forward_headroom = 0.0; backward_headroom = 0.0 }
  in
  refresh kind p ~extra_closure_delay o;
  o

let fixed_offsets ~assertion ~closure =
  { o_dz = 0.0; assertion; closure; forward_headroom = 0.0;
    backward_headroom = 0.0 }

(* The one write: [value] clamped into the legal interval (what
   [Hb_util.Time.clamp] does on a valid interval), stored only when it
   differs from the current value, so a clamped-to-equal write keeps the
   stored bits and reports no change. The other writes inline it. *)
let[@inline] set kind p ~extra_closure_delay o value =
  let lo = lo kind p and hi = hi kind p in
  let value = if value < lo then lo else if value > hi then hi else value in
  if value <> o.o_dz then begin
    o.o_dz <- value;
    refresh kind p ~extra_closure_delay o;
    true
  end
  else false

let shift_by kind p ~extra_closure_delay o (amounts : float array) i ~forward =
  let amount = amounts.(i) in
  set kind p ~extra_closure_delay o
    (if forward then o.o_dz +. -.amount else o.o_dz +. amount)

let set_from kind p ~extra_closure_delay o (values : float array) i =
  set kind p ~extra_closure_delay o values.(i)

let reset kind p ~extra_closure_delay o =
  set kind p ~extra_closure_delay o (hi kind p)
