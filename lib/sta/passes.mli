(** Pre-processing: minimum analysis passes per cluster (paper, Section 7).

    The clock-edge graph is built with {e two} nodes per clock edge: a
    closure-event node ordered immediately {e before} the assertion-event
    node at the same instant. A combinational path whose ideal assertion
    and closure reference the same clock edge (the ubiquitous
    flip-flop-to-flip-flop-same-phase case) then induces the ordering
    requirement "assertion node before closure node", which is satisfied
    exactly by breaking the period between the two — giving the path its
    full-period ideal constraint without a special case. The paper's
    Figure 4 construction is recovered when assertion and closure edges
    differ.

    For each cluster, one ordering requirement is added per
    input-terminal/output-terminal pair connected by a path, the minimum
    cut set is found with {!Hb_clock.Break.solve}, and every output
    terminal is assigned to the chosen cut that places its ideal closure
    time closest to the end of the broken-open period. *)

type plan = {
  cluster : int;
  cuts : int list;
      (** minimal set of break-open positions = analysis passes *)
  assignment : int array;
      (** output terminal index → its cut (pass); [-1] for outputs without
          a closure edge (impossible for well-formed elements) *)
}

type t = {
  system : Hb_clock.System.t;
  node_count : int;            (** 2 × number of clock edges (min 1) *)
  node_time : Hb_util.Time.t array;
  linear : Hb_util.Time.t array;
      (** [linear.(cut * node_count + node)] is {!linear_time}[ ~cut ~node]:
          every placement on every broken-open axis, computed once *)
  plans : plan array;          (** indexed by cluster id *)
  edge_index : (Hb_clock.Edge.t, int) Hashtbl.t;
      (** edge → index into the sorted edge array *)
  element_assertion_node : int array;
      (** element id → node of its assertion edge; [-1] when it has
          none *)
  element_closure_node : int array;
      (** element id → node of its closure edge; [-1] when it has none.
          With [linear] and {!Hb_sync.Element.t}[.offsets], a boundary
          time is [linear.(cut * node_count + node) +. offset]: the sum
          {!Block}, {!Slacks} and {!Macro} form in their loops with no
          call and no hashtable lookup *)
  endpoint_cluster : int array;
      (** element id → cluster owning its data-input terminal; [-1] when
          the element is not a cluster output *)
  endpoint_output : int array;
      (** element id → its output terminal index in that cluster; [-1] *)
  endpoint_cut : int array;
      (** element id → the cut (pass) its output terminal is assigned
          to; [-1] when absent or unassigned *)
}

exception Pass_error of string

(** [closure_node t edge] / [assertion_node t edge] map an edge to its two
    graph nodes.
    @raise Pass_error when the edge is not part of the clock system. *)
val closure_node : t -> Hb_clock.Edge.t -> int
val assertion_node : t -> Hb_clock.Edge.t -> int

(** [linear_time t ~cut ~node] places [node] on the broken-open time axis
    [[0, T)) ∪ [T, 2T)) starting at the cut: nodes that wrap past the cut
    are shifted one overall period later. A read of [linear]. *)
val linear_time : t -> cut:int -> node:int -> Hb_util.Time.t

(** [build ~system ~elements ~table] computes a plan for every cluster. *)
val build :
  system:Hb_clock.System.t ->
  elements:Elements.t ->
  table:Cluster.table ->
  t

(** [rebuild previous ~table ~kept] re-plans after {!Cluster.update}
    over the same clock system and element table. [kept.(c)] is the old
    id whose record new cluster [c] keeps (see {!Cluster.update}), and
    its plan carries over with only the id rewritten; a cluster with
    [-1] is re-solved. The element nodes and the clock-edge graph
    ([system], [node_time], [linear], [edge_index]) are shared with
    [previous], since an edit moves no element; the endpoint maps are
    shared too unless the outputs of a rebuilt or renumbered cluster
    move an entry, and then copied once. *)
val rebuild : t -> table:Cluster.table -> kept:int array -> t

(** [total_passes t] sums pass counts over clusters — the figure the
    paper's "minimum number of settling times" feature minimises. *)
val total_passes : t -> int

(** Per-source-edge settling times — the Wallace/Séquin-style
    accounting ([8] in the paper) in which every node receives one
    settling time per distinct clock edge that can cause a transition at
    it. The pre-processing above instead computes the {e minimum} number
    of analysis passes; {!settling_times} reports both counts. *)
type settling_report = {
  minimized_passes : int;
      (** total analysis passes chosen by the Section 7 pre-processing *)
  naive_settling_times : int;
      (** total passes a per-source-edge method would need: one per
          distinct input assertion edge per cluster *)
}

(** [settling_times t ~table] compares the plans of [t] with per-edge
    accounting over the clusters of [table], the table [t] was built
    from. *)
val settling_times : t -> table:Cluster.table -> settling_report

(** [cluster_settling_times t ~table] is the same comparison per cluster,
    as [(cluster id, minimized, naive)] for each cluster with logic, in
    id order; the totals of {!settling_times} are its column sums. *)
val cluster_settling_times :
  t -> table:Cluster.table -> (int * int * int) list
