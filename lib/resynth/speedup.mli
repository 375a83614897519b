(** The re-design operator of the analysis/re-design loop.

    Stands in for the timing-optimisation program of Singh et al. ([1] in
    the paper): speeds a set of combinational instances up by substituting
    the next higher drive variant from the library. Upsizing shortens the
    load-dependent part of a cell's delay at the cost of area and of extra
    input capacitance presented upstream — the classic trade the
    analysis/redesign loop negotiates. *)

type change = {
  inst : int;  (** instance id in the design the change was picked on *)
  inst_name : string;
  old_cell : string;
  new_cell : string;
}

(** [upsize_instances design ~library ~instances] picks, for each listed
    combinational instance of [design] that has a next drive variant,
    the substitution to make, in ascending instance order (duplicates
    listed once). It changes nothing: the caller applies the picks, for
    example as [Edit.Resize_gate] commands. The list is empty when no
    listed instance can be improved. *)
val upsize_instances :
  Hb_netlist.Design.t ->
  library:Hb_cell.Library.t ->
  instances:int list ->
  change list
