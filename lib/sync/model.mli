(** The offset algebra of the generic synchronising-element model
    (paper, Sections 4–5, Figures 2–3).

    A synchronising element carries four terminal offsets:

    - [o_dc] — input closure caused by closure control, relative to the
      ideal input closure time;
    - [o_dz] — input closure corresponding to output assertion, same
      reference;
    - [o_zd] — output assertion resulting from input timing, relative to
      the ideal output assertion time;
    - [o_zc] — output assertion caused by assertion control, same
      reference.

    The actual input closure offset is [min(o_dc, o_dz)] and the actual
    output assertion offset is [max(o_zc, o_zd)]. The simplified model of
    Figure 2(b) fixes [o_dc = -Dsetup] and, for the transparent latch,
    couples [o_zd = W + o_dz + D_dz] (Figure 3), leaving [o_dz] as the
    single degree of freedom that slack transfer moves.

    The functions below compute the derived offsets, their legal
    interval, and the transfer headrooms from the element parameters and
    an [o_dz] value. The per-replica offset state is an {!offsets}
    record, which {!Element} keeps; the writes at the end of this module
    are the only code that changes it. *)

type params = {
  setup : Hb_util.Time.t;        (** [Dsetup] *)
  d_cz : Hb_util.Time.t;         (** control-to-output delay *)
  d_dz : Hb_util.Time.t;         (** data-to-output delay *)
  pulse_width : Hb_util.Time.t;  (** [W], width of the controlling pulse as
                                     seen at the control input *)
  control_delay : Hb_util.Time.t;
      (** [O_at]: arrival offset of control transitions relative to the
          clock edge (the control path delay); non-negative *)
}

(** [validate p] checks all parameters are non-negative and the pulse width
    is positive.
    @raise Invalid_argument otherwise. *)
val validate : params -> unit

(** [o_dz_interval kind p] is the legal interval for the free offset
    [o_dz]:
    - transparent latch / tristate driver: [[-(W + D_dz), -D_dz]];
    - trailing-edge flip-flop: the degenerate interval [[0, 0]] (no
      freedom — "the timing of the data input and output are
      independent"). *)
val o_dz_interval : Hb_cell.Kind.synchroniser -> params -> Hb_util.Interval.t

(** [initial_o_dz kind p] is the default starting point for Algorithm 1:
    the latest legal value (input closure at the end of the control
    pulse). *)
val initial_o_dz : Hb_cell.Kind.synchroniser -> params -> Hb_util.Time.t

(** [o_zd kind p ~o_dz] derives the data-driven output assertion offset:
    [W + o_dz + D_dz] for transparent elements, [0] for the flip-flop. *)
val o_zd : Hb_cell.Kind.synchroniser -> params -> o_dz:Hb_util.Time.t -> Hb_util.Time.t

(** [closure_offset kind p ~o_dz] is the effective input closure offset
    [min(-Dsetup, o_dz)], relative to the ideal input closure time. *)
val closure_offset :
  Hb_cell.Kind.synchroniser -> params -> o_dz:Hb_util.Time.t -> Hb_util.Time.t

(** [assertion_offset kind p ~o_dz] is the effective output assertion
    offset [max(O_at + D_cz, o_zd)], relative to the ideal output assertion
    time. *)
val assertion_offset :
  Hb_cell.Kind.synchroniser -> params -> o_dz:Hb_util.Time.t -> Hb_util.Time.t

(** [forward_headroom kind p ~o_dz] is [m] for forward transfer/snatch: how
    far [o_dz] may decrease. *)
val forward_headroom :
  Hb_cell.Kind.synchroniser -> params -> o_dz:Hb_util.Time.t -> Hb_util.Time.t

(** [backward_headroom kind p ~o_dz] is [m] for backward transfer/snatch:
    how far [o_dz] may increase. *)
val backward_headroom :
  Hb_cell.Kind.synchroniser -> params -> o_dz:Hb_util.Time.t -> Hb_util.Time.t

(** {1 Offset state}

    The free offset and the four offsets derived from it, as one
    all-float record: its fields are stored flat, so a write stores
    floats without boxing them and readers in other modules load them
    without a call. Every write here clamps the new [o_dz] into
    {!o_dz_interval}, stores it only when it differs from the current
    value ([<>] on floats), recomputes the derived fields with the
    formulas above, and returns whether it stored. Except for {!set},
    no float crosses the call: values come in through records and
    arrays, since the default dev profile compiles libraries [-opaque]
    and a float argument or result of a call that is not inlined is
    boxed. An element's offsets change only through {!Element}, which
    bumps the element's version when a write returns [true]. *)

type offsets = private {
  mutable o_dz : float;  (** the free offset *)
  mutable assertion : float;
      (** {!assertion_offset} of [o_dz] *)
  mutable closure : float;
      (** {!closure_offset} of [o_dz], plus the element's extra closure
          delay *)
  mutable forward_headroom : float;  (** {!forward_headroom} of [o_dz] *)
  mutable backward_headroom : float;  (** {!backward_headroom} of [o_dz] *)
}

(** [initial_offsets kind p ~extra_closure_delay] is a fresh state at
    {!initial_o_dz}. *)
val initial_offsets :
  Hb_cell.Kind.synchroniser -> params -> extra_closure_delay:Hb_util.Time.t ->
  offsets

(** [fixed_offsets ~assertion ~closure] is the state of a boundary
    element: [o_dz] and both headrooms 0. No write below should be given
    it. *)
val fixed_offsets :
  assertion:Hb_util.Time.t -> closure:Hb_util.Time.t -> offsets

(** [set kind p ~extra_closure_delay o v] writes [v]. *)
val set :
  Hb_cell.Kind.synchroniser -> params -> extra_closure_delay:Hb_util.Time.t ->
  offsets -> Hb_util.Time.t -> bool

(** [shift_by kind p ~extra_closure_delay o amounts i ~forward] writes
    [o.o_dz +. -.amounts.(i)] when [forward] (a forward transfer moves
    [o_dz] earlier), [o.o_dz +. amounts.(i)] otherwise. *)
val shift_by :
  Hb_cell.Kind.synchroniser -> params -> extra_closure_delay:Hb_util.Time.t ->
  offsets -> float array -> int -> forward:bool -> bool

(** [set_from kind p ~extra_closure_delay o values i] writes
    [values.(i)]. *)
val set_from :
  Hb_cell.Kind.synchroniser -> params -> extra_closure_delay:Hb_util.Time.t ->
  offsets -> float array -> int -> bool

(** [reset kind p ~extra_closure_delay o] writes {!initial_o_dz}. *)
val reset :
  Hb_cell.Kind.synchroniser -> params -> extra_closure_delay:Hb_util.Time.t ->
  offsets -> bool
