(** Baseline analyses the paper compares against.

    {b Path enumeration} — the "computationally expensive" exact
    alternative to the block method (Section 7), where every
    combinational path is walked individually and its path constraint
    checked, is {!Reference.evaluate}. On acyclic max-delay analysis both
    methods agree on every verdict (neither discards false paths); the
    benchmark suite demonstrates the runtime gap, and the property tests
    the agreement. {!exhaustive_paths} is the per-endpoint counterpart
    that returns the paths themselves.

    {b Per-source-edge settling times} — the Wallace/Séquin-style
    accounting ([8] in the paper) in which every node receives one
    settling time per distinct clock edge that can cause a transition at
    it. The paper's pre-processing instead computes the {e minimum} number
    of analysis passes; {!settling_times} reports both counts. *)

(** Raised by {!exhaustive_paths} when the path count passes
    [max_paths]. *)
exception Budget_exhausted

(** [k_worst_paths ctx ~endpoint ~limit] is the seed's k-worst path
    enumerator (best-first search with a materialised hop list per
    state), kept as the old-vs-new baseline for bench section P2 and the
    parity tests. Must return the same paths as {!Paths.enumerate}. *)
val k_worst_paths : Context.t -> endpoint:int -> limit:int -> Paths.path list

(** [exhaustive_paths ctx ~endpoint ?max_paths ()] walks {e every}
    complete path into the endpoint depth-first and returns them worst
    slack first (tie order among equal slacks unspecified) — the
    reference the k-worst property tests compare against.
    @raise Budget_exhausted past [max_paths] (default 1_000_000). *)
val exhaustive_paths :
  Context.t -> endpoint:int -> ?max_paths:int -> unit -> Paths.path list

type settling_report = {
  minimized_passes : int;
      (** total analysis passes chosen by the Section 7 pre-processing *)
  naive_settling_times : int;
      (** total passes a per-source-edge method would need: one per
          distinct input assertion edge per cluster *)
  per_cluster : (int * int * int) list;
      (** cluster id, minimized, naive — clusters with logic only *)
}

val settling_times : Context.t -> settling_report
