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

(** [extract ~design ~elements ?delays ()] partitions the design into
    clusters and builds their timing graphs. [delays] chooses the
    component-delay estimator (default {!Delays.lumped}). Cluster ids
    are dense, in the order of each cluster's lowest net.
    @raise Cycle_error when a cluster's combinational logic contains a
    directed cycle (forbidden by the paper's Section 3 assumptions). *)
val extract :
  design:Hb_netlist.Design.t ->
  elements:Elements.t ->
  ?delays:Delays.t ->
  unit ->
  table

(** [update table ~design ~elements ~touched ?delays ()] is
    [extract ~design ~elements ?delays ()] for a design edited from
    [table]'s, at the cost of what the edit touched. [touched] names the
    old clusters an edit may have changed: every net whose connections,
    capacitance or driver changed, and every instance whose record
    changed, must lie in one of them or be appended past [table]'s nets
    and the old instances; [elements] must name the same nets as the
    table's (structural ECO never moves an element). Only the region —
    the touched clusters' nets plus the appended ones — is partitioned
    again, over the combinational instances with a pin on it, and its
    clusters are built by the same code as {!extract}'s; every other
    cluster's record is kept, with its id rewritten only when the
    region's clusters shift it. When the region's clusters have the
    touched clusters' lowest nets, every id stays, and the net maps are
    shared with [table] unless an entry moved.

    Returns the new table and, for each new cluster id, the old id whose
    record it keeps, or [-1] for a rebuilt cluster. [table] is not
    changed.
    @raise Cycle_error as {!extract} does.
    @raise Invalid_argument on a [touched] id out of range, a design
    with fewer nets than [table], or an instance of the region with a
    net outside it. *)
val update :
  table ->
  design:Hb_netlist.Design.t ->
  elements:Elements.t ->
  touched:int list ->
  ?delays:Delays.t ->
  unit ->
  table * int array

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
