(** Pluggable component-delay estimation.

    "By separating component delay-estimation and system-timing analysis,
    different delay-estimation methods may be combined" (paper,
    Section 1). A provider turns one combinational timing arc of one
    instance into worst-case rise and fall propagation delays; the cluster
    builder consumes whichever provider the context was created with.

    Two providers ship:
    - {!lumped} — the empirical standard-cell formula evaluated at the
      net's lumped capacitance (the default, matching the paper's own
      set-up for standard cells);
    - {!rc} — a switch-level-style estimator in the spirit of the paper's
      references [2,3]: the cell's slope acts as a driver resistance into
      a synthetic RC tree for the net, and the arc delay is the intrinsic
      part plus the worst-sink Elmore delay.

    Three of them have names that the command line, [serve] and session
    snapshots accept ({!names}). *)

type t = {
  name : string;
  evaluate :
    design:Hb_netlist.Design.t ->
    inst:int ->
    arc:Hb_cell.Cell.timing_arc ->
    out_net:int ->
    Hb_util.Time.t * Hb_util.Time.t;
    (** worst-case (rise, fall) propagation delays of the arc *)
}

val lumped : t

(** [rc ?parameters ()] builds the Elmore-based provider; [parameters]
    default to {!Hb_rc.Wire_model.default}. It is named ["rc"] on the
    default star trees, ["rc-chain"] on the default parameters with chain
    trees, and ["rc-custom"] otherwise. *)
val rc : ?parameters:Hb_rc.Wire_model.parameters -> unit -> t

(** The names {!of_name} accepts: ["lumped"], ["rc"] and ["rc-chain"]. *)
val names : string list

(** [of_name name] is the provider named [name] when [name] is one of
    {!names}, [None] otherwise. *)
val of_name : string -> t option
