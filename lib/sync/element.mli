(** Per-replica synchronising element state.

    After multi-rate replication (paper, Section 4: an element clocked at
    [n] times the base frequency "is represented by n such elements
    connected in parallel", one per clock pulse), every element instance
    has exactly one ideal assertion time and one ideal closure time per
    overall period, plus the adjustable offset state of {!Model}.

    Boundary elements represent primary ports: a primary input asserts its
    signal at a fixed offset from a clock edge, a primary output requires
    data at a fixed offset. They take part in slack bookkeeping but have no
    adjustable offsets. *)

type detail = private
  | Clocked of {
      kind : Hb_cell.Kind.synchroniser;
      params : Model.params;
    }
  | Fixed of {
      assertion_offset : Hb_util.Time.t;
      closure_offset : Hb_util.Time.t;
    }  (** boundary (port) element *)

(** The free offset [o_dz] (0 for boundaries) and the effective offsets
    and transfer headrooms {!Model} derives from it. Each value has one
    owner: the {!Model} writes behind {!shift}, {!set_o_dz}, {!reset}
    and the array loops below are the only code that changes them, and
    everything else reads them. All fields are floats, so the record
    stores them flat: hot loops in other modules read a field without a
    call, and so without boxing the float (the default dev profile
    compiles libraries [-opaque], which keeps cross-module float helpers
    from inlining). *)
type offsets = Model.offsets = private {
  mutable o_dz : float;
  mutable assertion : float;
      (** effective output assertion offset [max(O_at + D_cz, o_zd)] *)
  mutable closure : float;
      (** effective input closure offset [min(-Dsetup, o_dz)], plus
          [extra_closure_delay] *)
  mutable forward_headroom : float;
  mutable backward_headroom : float;
}

type t = private {
  id : int;          (** dense id across the analysed design *)
  inst : int;        (** netlist instance id, or [-1] for boundaries *)
  label : string;    (** readable name, e.g. ["u5#1"] or ["port din"] *)
  replica : int;     (** pulse index this replica is tied to *)
  extra_closure_delay : Hb_util.Time.t;
      (** added to the effective closure offset; carries multicycle
          exceptions ((n-1) periods of the capturing clock) *)
  assertion_edge : Hb_clock.Edge.t option;
      (** ideal output assertion edge; [None] when the element drives no
          analysed logic *)
  closure_edge : Hb_clock.Edge.t option;
      (** ideal input closure edge; [None] when the element has no data
          input *)
  detail : detail;
  mutable version : int;
      (** dirty counter: bumped on every effective offset change
          ({!shift}, {!set_o_dz}, {!reset} and the array loops);
          incremental slack evaluation compares it against a snapshot
          to find stale clusters *)
  offsets : offsets;
      (** changes exactly where [version] is bumped *)
}

(** [clocked ~id ~inst ~label ~replica ~kind ~params ~assertion_edge
    ~closure_edge] builds a clocked element with [o_dz] at
    {!Model.initial_o_dz}.
    @raise Invalid_argument when [params] are invalid. *)
val clocked :
  ?extra_closure_delay:Hb_util.Time.t ->
  id:int ->
  inst:int ->
  label:string ->
  replica:int ->
  kind:Hb_cell.Kind.synchroniser ->
  params:Model.params ->
  assertion_edge:Hb_clock.Edge.t ->
  closure_edge:Hb_clock.Edge.t ->
  unit ->
  t

(** [input_boundary ~inst ~id ~label ~edge ~arrival_offset] models a
    primary input asserting [arrival_offset] after [edge]. [inst] tags the
    boundary with a netlist instance when it stands in for one (enable
    endpoints use the guarded instance); pass [-1] for plain ports. *)
val input_boundary :
  inst:int ->
  id:int -> label:string -> edge:Hb_clock.Edge.t -> arrival_offset:Hb_util.Time.t -> t

(** [output_boundary ~inst ~id ~label ~edge ~required_offset] models a
    primary output whose data must be valid [required_offset] after [edge]
    (negative means before). See {!input_boundary} for [inst]. *)
val output_boundary :
  inst:int ->
  id:int -> label:string -> edge:Hb_clock.Edge.t -> required_offset:Hb_util.Time.t -> t

(** Effective offsets under the current state (see {!Model}): reads of
    [offsets]. *)
val closure_offset : t -> Hb_util.Time.t
val assertion_offset : t -> Hb_util.Time.t

(** Transfer headrooms; zero for boundary elements and flip-flops. *)
val forward_headroom : t -> Hb_util.Time.t
val backward_headroom : t -> Hb_util.Time.t

(** [shift t delta] moves [o_dz] by [delta] (negative = earlier = forward
    transfer), clamped into the legal interval. No-op on boundaries. *)
val shift : t -> Hb_util.Time.t -> unit

(** [reset t] restores the initial offset state. *)
val reset : t -> unit

(** [o_dz t] reads the current free offset (0 for boundaries). *)
val o_dz : t -> Hb_util.Time.t

(** [set_o_dz t v] writes the free offset, clamped to the legal interval.
    No-op on boundaries. Used to save/restore analysis state. *)
val set_o_dz : t -> Hb_util.Time.t -> unit

(** {1 Loops over a design's elements}

    Each runs the {!Model} write of every element it moves, reading the
    amount or offset from the array it lives in, so a call allocates
    nothing per element. *)

(** [shift_all all amounts ~forward] shifts [all.(e)] by
    [-. amounts.(e)] when [forward], by [amounts.(e)] otherwise, for
    every [e] whose amount is positive ({!Hb_util.Time.is_positive}).
    Returns whether any amount was positive. [amounts] is as long as
    [all]. *)
val shift_all : t array -> float array -> forward:bool -> bool

(** [save_all all] is every element's [o_dz], in order;
    [restore_all all saved] writes them back with {!set_o_dz}.
    @raise Invalid_argument when the lengths differ. *)
val save_all : t array -> Hb_util.Time.t array
val restore_all : t array -> Hb_util.Time.t array -> unit

(** [reset_all all] resets every element. *)
val reset_all : t array -> unit

val is_boundary : t -> bool

(** [version t] reads the offset-state dirty counter. Stays at [0] for
    boundary elements, whose offsets never move. *)
val version : t -> int

val pp : Format.formatter -> t -> unit
