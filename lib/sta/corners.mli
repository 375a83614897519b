(** Multi-corner analysis — an extension.

    Runs the full Algorithm 1 analysis at several process/voltage/
    temperature corners, each modelled as a global scaling of every
    component delay over a base estimator (slow corners scale up, fast
    corners down). The max-delay verdict must hold at the slowest corner;
    the supplementary (minimum-delay) checks are most stressed at the
    fastest, so hold violations are collected per corner too. *)

type corner = {
  corner_name : string;
  delay_scale : float;  (** > 0; 1.0 is the nominal corner *)
}

(** Classic three-corner set: fast 0.8×, nominal 1.0×, slow 1.25×. *)
val typical : corner list

type result = {
  corner : corner;
  status : Algorithm1.status;
  worst_slack : Hb_util.Time.t;
  hold_violations : int;
}

type report = {
  results : result list;          (** in the order given *)
  all_corners_met : bool;         (** max-delay timing met at every corner *)
  any_hold_violation : bool;
}

(** [analyse ~design ~system ?config ?base ?corners ()] runs one
    {!Engine.analyse} per corner ([corners] defaults to {!typical}, [base]
    to {!Delays.lumped}), over a provider that multiplies each of [base]'s
    rise and fall delays by the corner's [delay_scale].
    @raise Invalid_argument when a corner's [delay_scale] is not positive. *)
val analyse :
  design:Hb_netlist.Design.t ->
  system:Hb_clock.System.t ->
  ?config:Config.t ->
  ?base:Delays.t ->
  ?corners:corner list ->
  unit ->
  report

(** [to_table report] renders the per-corner results. *)
val to_table : report -> string
