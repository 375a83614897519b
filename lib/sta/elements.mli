(** The element table: every synchronising element of the analysed design
    after multi-rate replication, plus boundary elements for primary ports
    and enable-path endpoints for gated control pins.

    Each element knows which net its data input {e reads} (the net whose
    cluster carries its closure constraint) and which net its output
    {e drives} (where its assertion launches transitions). Enable pseudo
    elements read the control-pin net of the element they guard; primary
    input/output boundaries drive/read their port net. *)

type t = private {
  design : Hb_netlist.Design.t;
  system : Hb_clock.System.t;
  all : Hb_sync.Element.t array;
  reads : int option array;   (** element id → net id its closure constrains *)
  drives : int list array;
      (** element id → net ids it asserts onto; synchronisers with
          complementary outputs (q and qb) assert several nets at once *)
  replicas_of_inst : (int, int list) Hashtbl.t;
      (** sync instance id → clocked element ids, in pulse order *)
  control : (int, Control.info) Hashtbl.t;  (** sync instance id → cone info *)
}

exception Build_error of string

(** [build ~design ~system ~config] traces control cones, replicates
    multi-rate elements and creates port boundaries.
    @raise Build_error when a control cone is malformed, a clock port has
    no waveform in [system], or a referenced pulse index is out of range.
*)
val build :
  design:Hb_netlist.Design.t ->
  system:Hb_clock.System.t ->
  config:Config.t ->
  t

val count : t -> int
val element : t -> int -> Hb_sync.Element.t

(** [retarget t ~design] repoints the table at an edited design whose
    synchronising elements, ports, control cones, and their nets are
    untouched (the guarantee {!Session.apply} enforces for structural
    ECO commands: edits never reach a control cone, never move a sync
    pin, and keep net/instance ids stable). The live {!Hb_sync.Element}
    values — adjustable offsets and version counters included — are
    shared, so slack caches keyed on element versions stay coherent
    across the swap. *)
val retarget : t -> design:Hb_netlist.Design.t -> t

(** [save_offsets t] snapshots every adjustable offset;
    [restore_offsets t snapshot] puts them back
    ({!Hb_sync.Element.save_all}, {!Hb_sync.Element.restore_all}).
    @raise Invalid_argument when [snapshot] is not one offset per
    element. *)
val save_offsets : t -> Hb_util.Time.t array
val restore_offsets : t -> Hb_util.Time.t array -> unit

(** [reset_offsets t] restores every element's initial offsets. *)
val reset_offsets : t -> unit
