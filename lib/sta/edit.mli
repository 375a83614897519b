(** Typed edit commands for {!Session.apply}.

    An edit batch is validated as a whole and applied atomically: either
    every command lands or the session is left exactly as it was. Delay
    commands ({!Set_delay}, {!Scale_delay}, {!Annotate}, {!Set_offset})
    override timing data; structural commands
    ({!Insert_buffer}, {!Resize_gate}, {!Remove_gate}, {!Rewire_net})
    perform ECO surgery via {!Hb_netlist.Structural} and rebuild only
    the clusters they touch.

    Instances and nets are named by their design names; names introduced
    by an earlier command in a batch are visible to later commands. *)

type t =
  | Set_delay of { instance : string; rise : float; fall : float }
      (** Pin every arc of [instance] to the given rise/fall delays. *)
  | Scale_delay of { instance : string; factor : float }
      (** Multiply [instance]'s base-provider delays by [factor]. *)
  | Annotate of Annotation.t
      (** Fold an annotation into the session overrides. Its entries are
          checked as {!Set_delay} and {!Scale_delay} are (no negative
          delay, a positive factor), the first entry for an instance
          wins, and entries naming unknown instances are ignored (see
          {!Annotation.unused}). *)
  | Set_offset of { element : int; offset : Hb_util.Time.t }
      (** Write element [element]'s free signal-arrival offset. *)
  | Insert_buffer of {
      net : string;
      cell : Hb_cell.Cell.t;
      inst_name : string option;
      net_name : string option;
    }
      (** Split [net] at its driver with a new instance of [cell]. *)
  | Resize_gate of { instance : string; cell : Hb_cell.Cell.t }
      (** Swap [instance]'s cell for the pin-compatible [cell]. *)
  | Remove_gate of { instance : string }
      (** Tombstone [instance] and detach it from its nets. *)
  | Rewire_net of { instance : string; pin : string; net : string }
      (** Move input [pin] of [instance] onto [net]. *)

(** Short operation name, e.g. ["insert_buffer"]; stable, used in wire
    replies. *)
val op_name : t -> string

(** [control_nets design] marks a conservative superset of the nets
    that feed some synchroniser's control cone (clock trees, enable
    logic). Structural edits touching a marked net are rejected, so
    control arrival times are invariant under ECO. *)
val control_nets : Hb_netlist.Design.t -> bool array
