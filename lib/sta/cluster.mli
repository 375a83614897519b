(** Clusters: maximal connected networks of combinational logic.

    "All inputs to a cluster are synchronising element outputs and all
    outputs from a cluster are synchronising element inputs" (paper,
    Section 7) — extended here with primary-port boundaries and enable
    endpoints, which are uniform {!Hb_sync.Element} values.

    Every net belongs to exactly one cluster. A cluster's internal timing
    graph has one node per net and one weighted arc per combinational cell
    timing arc, with maximum and minimum propagation delays evaluated at
    the driven net's load. Nets driven by clock generator ports carry no
    signal-arrival information (their ready time stays [-inf]); the gates
    they feed are enable/control logic whose data-side inputs are the real
    timing sources.

    A cluster holds its arcs only as flat arrays indexed by arc id, one
    array per attribute ([arc_from] .. [arc_inst], all of one length):
    float arrays keep their floats unboxed, so an arc costs eight words
    and no heap block of its own. Arc ids follow extraction order:
    member instances in id order, then each connected output pin in the
    cell's pin order, then the cell's timing arcs into that pin. *)

(** An element touching the cluster boundary. *)
type terminal = {
  element : int;  (** element id in the {!Elements.t} table *)
  net : int;      (** local net index the element drives or reads *)
}

type t = {
  id : int;
  nets : int array;                (** local index → global net id *)
  members : int list;              (** combinational instance ids *)
  arc_from : int array;            (** per arc id: source local net *)
  arc_to : int array;              (** per arc id: sink local net *)
  arc_dmax : float array;          (** per arc id: max(rise, fall) *)
  arc_dmin : float array;          (** per arc id: min(rise, fall) *)
  arc_rise : float array;          (** per arc id: output-rising
                                       propagation delay *)
  arc_fall : float array;          (** per arc id: output-falling
                                       propagation delay *)
  arc_sense : [ `Positive | `Negative | `Non_unate ] array;
      (** per arc id: unateness, for rise/fall-separated sweeps *)
  arc_inst : int array;            (** per arc id: netlist instance
                                       carrying the arc *)
  succ_off : int array;            (** CSR row offsets, length [nets + 1]:
                                       arcs out of local net [v] are
                                       [succ_arc.(succ_off.(v)) ..
                                        succ_arc.(succ_off.(v + 1) - 1)] *)
  succ_arc : int array;            (** CSR targets: arc ids by source net *)
  pred_off : int array;            (** CSR row offsets for incoming arcs *)
  pred_arc : int array;            (** CSR targets: arc ids by sink net *)
  topo : int array;                (** local nets, topologically sorted *)
  inputs : terminal array;         (** elements asserting onto cluster nets *)
  outputs : terminal array;        (** elements whose closure constrains
                                       cluster nets *)
}

(** [iter_succ cluster net ~f] applies [f] to the index of every arc
    leaving local [net]. The flat offset/target pairs can also be
    indexed directly in hot loops. *)
val iter_succ : t -> int -> f:(int -> unit) -> unit

type table = {
  clusters : t array;
  cluster_of_net : int array;      (** global net id → cluster id *)
  local_of_net : int array;        (** global net id → local net index *)
}

exception Cycle_error of string

(** [extract ~design ~elements ?delays ?reuse ()] partitions the design
    into clusters and builds their timing graphs. [delays] chooses the
    component-delay estimator (default {!Delays.lumped}).

    [reuse] is the incremental-ECO hook: given [(old_table, keep)], any
    new cluster whose net array is identical to a [keep]-approved old
    cluster's {e physically shares} that cluster's record (arcs, CSR,
    topological order — only the dense id is rewritten), skipping arc
    delay evaluation and sorting for it. Callers must pass a [keep]
    that rejects every old cluster whose arcs, terminals, or net
    capacitances an edit may have changed; matching is by net identity
    only. The result is then bit-identical to a from-scratch extract
    of the edited design, including cluster id assignment.
    @raise Cycle_error when a cluster's combinational logic contains a
    directed cycle (forbidden by the paper's Section 3 assumptions). *)
val extract :
  design:Hb_netlist.Design.t ->
  elements:Elements.t ->
  ?delays:Delays.t ->
  ?reuse:table * (int -> bool) ->
  unit ->
  table

(** [reachable_outputs cluster ~input_terminal_index ~marked ~hits]
    writes into [hits], in ascending order, the indices (into
    [cluster.outputs]) of the output terminals reachable from the given
    input terminal through the cluster graph, and returns how many it
    wrote. [marked] and [hits] are the caller's scratch, at least as long
    as the cluster's nets and outputs; one pair serves every cluster. *)
val reachable_outputs :
  t -> input_terminal_index:int -> marked:Bytes.t -> hits:int array -> int

(** [refresh_instance_delays table ~design ~insts ~delays ()] re-evaluates,
    {e in place}, the arcs carried by the instances in [insts] and returns
    the ids of the clusters whose arcs it rewrote (deduplicated,
    ascending). Within its cluster an instance's arcs sit together in
    extraction order, so the refresh replays {!extract}'s walk over them
    and writes each arc's delays exactly as extraction would, so those
    arcs equal a fresh extraction's of [design] under [delays]. A
    session editing one instance's delay touches one cluster and leaves
    every other cluster's cached slack results valid — pair the returned
    ids with [Context.invalidate_clusters].
    @raise Invalid_argument when [design] has a different net count, an
    id in [insts] is out of range, or an instance's arcs in [design]
    differ in number or in the nets they join from those the table holds
    for it. *)
val refresh_instance_delays :
  table ->
  design:Hb_netlist.Design.t ->
  insts:int list ->
  ?delays:Delays.t ->
  unit ->
  int list
