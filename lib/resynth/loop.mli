(** Algorithm 3 — the analysis/re-design loop (paper, Section 8).

    {v
    Synthesise initial area-optimised combinational logic modules.
    Until all paths are fast enough:
      Perform timing analysis to identify all paths that are too slow;
      Provide input data ready times and output required times for all
        combinational logic modules traversed by paths that are too slow;
      Select one such module and speed up slow paths.
    v}

    Module selection follows the Singh-et-al. idea of "most potential for
    speed up": each iteration takes the worst critical path, collects the
    combinational instances on it that still have a faster drive variant,
    and upsizes them. The loop stops when timing is met, when no candidate
    can be improved further, or at the iteration cap. *)

type step = {
  iteration : int;
  worst_slack : Hb_util.Time.t;  (** before this iteration's change *)
  total_negative_slack : Hb_util.Time.t;
      (** sum of the finite negative element input slacks (<= 0) *)
  slow_endpoints : int;
      (** elements whose input slack is finite and negative *)
  delta_worst_slack : Hb_util.Time.t;
      (** worst slack gained since the previous iteration (0 on the
          first, and when either side is infinite) *)
  area : float;
  changed : Speedup.change list; (** substitutions applied this iteration *)
}

type result = {
  design : Hb_netlist.Design.t;   (** final (possibly improved) design *)
  met_timing : bool;
  iterations : int;
  history : step list;            (** chronological — the QoR journal;
      each iteration is also emitted as a [resynth.iteration] log line *)
  final_worst_slack : Hb_util.Time.t;
  final_total_negative_slack : Hb_util.Time.t;
  final_slow_endpoints : int;
  final_area : float;
}

(** [qor slacks] is the QoR scalars of one analysis, [(tns,
    slow_endpoints)]: the sum of the finite negative element input
    slacks and their count. The golden corpus records the same pair. *)
val qor : Hb_sta.Slacks.t -> Hb_util.Time.t * int

(** [optimise ~design ~system ~library ?config ?max_iterations ()] runs the
    loop. [max_iterations] defaults to 50. *)
val optimise :
  design:Hb_netlist.Design.t ->
  system:Hb_clock.System.t ->
  library:Hb_cell.Library.t ->
  ?config:Hb_sta.Config.t ->
  ?max_iterations:int ->
  unit ->
  result
