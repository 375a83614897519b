(** Slow-path and critical-path extraction.

    Problem statement (i) of the paper: "find all paths that are too
    slow". After Algorithm 1 has settled the offsets, every data-input
    terminal with non-positive slack anchors at least one slow path; this
    module traces the paths through the cluster graphs for reporting and
    for flagging back into the netlist. *)

(** One step of a path: the signal reaches [net] (global id) through
    combinational instance [via] ([None] for the launching net). *)
type hop = {
  net : int;
  via : int option;
  at : Hb_util.Time.t;  (** ready time on the pass's broken-open axis *)
}

type path = {
  start_element : int;  (** element id launching the path *)
  end_element : int;    (** element id whose closure ends the path *)
  cluster : int;
  cut : int;            (** pass in which the path was traced *)
  slack : Hb_util.Time.t;
  hops : hop list;      (** launching net first *)
}

(** [worst_endpoints slacks ~limit] lists up to [limit] element ids
    with the smallest data-input slacks, ascending; equal slacks list
    the larger element id first. Selected with a bounded heap (no full
    sort); [limit <= 0] yields []. *)
val worst_endpoints : Slacks.t -> limit:int -> (int * Hb_util.Time.t) list

(** [critical_path ctx ~endpoint] traces the single worst path converging
    on the element's data input, at the current offsets. [None] when the
    endpoint reads no net or no signal reaches it. *)
val critical_path : Context.t -> endpoint:int -> path option

(** [worst_paths ctx slacks ~limit] is the critical path of each of the
    [limit] worst endpoints. Endpoints are traced in parallel across the
    domain pool when [Config.parallel_jobs > 1]; the result order is
    deterministic (worst endpoint first) either way. *)
val worst_paths : Context.t -> Slacks.t -> limit:int -> path list

(** [slow_paths ctx slacks ~limit] is the critical path of every endpoint
    with non-positive slack (up to [limit] endpoints). Parallel and
    deterministic as {!worst_paths}. *)
val slow_paths : Context.t -> Slacks.t -> limit:int -> path list

(** [enumerate ctx ~endpoint ~limit] lists up to [limit] distinct paths
    converging on the element's data input, worst slack first. Unlike
    {!critical_path} (which follows only arrival-realising arcs), this
    explores every path and ranks by true per-path slack, so
    near-critical paths behind the worst one are visible — what a
    designer asks right after fixing the first violation.

    Search states live in a per-domain predecessor pool (hops are
    materialised only for the returned paths) and pushes whose
    arrival-plus-remaining bound falls below the k-th best known
    completion by more than a rounding margin are pruned, so the frontier
    stays proportional to the live states actually competing for the
    [limit] slots. The rank slacks equal those of the first [limit]
    paths of {!Reference.paths} bit for bit. *)
val enumerate : Context.t -> endpoint:int -> limit:int -> path list

(** [enumerate_many ctx ~endpoints ~limit] is [enumerate] for each
    endpoint, fanned across the domain pool when
    [Config.parallel_jobs > 1]. Results align with the input order and
    are identical to the sequential ones. *)
val enumerate_many :
  Context.t -> endpoints:int list -> limit:int -> path list list

(** [pp ctx] renders a path with instance and net names. *)
val pp : Context.t -> Format.formatter -> path -> unit
