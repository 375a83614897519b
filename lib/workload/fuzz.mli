(** Differential fuzzing of the timing engine.

    One seed deterministically derives a small multi-clock latch/FF
    design (a {!Soup} soup or, occasionally, a {!Falsey} false-path
    pattern), a random delay annotation and a what-if mutation script,
    then drives it through every fast path the engine offers and
    cross-checks the answers:

    - {b engine-parity}: incremental + parallel analysis vs the
      sequential from-scratch configuration — bit-identical;
    - {b macro-parity}: timing-macro relaxation vs flat — bit-identical;
    - {b session-parity}: a session surviving a random mutation
      sequence vs a fresh engine run on the equivalently annotated
      design — bit-identical;
    - {b structural-parity}: a session surviving a random structural
      ECO script vs a fresh engine on the edited design — bit-identical;
    - {b path-parity}: the zero-allocation k-worst enumerator vs the
      exhaustive walk of {!Hb_sta.Reference.paths} under the same
      annotated delays — the same path count and bit-identical rank
      slacks;
    - {b cache-coherence}: targeted cluster invalidation after an
      in-place delay edit vs a forced full recompute — bit-identical
      (the check the [inject] sabotage makes fail);
    - {b reference}: the engine's settled slacks vs the naive
      flat-graph oracle ({!Hb_sta.Reference}) — equal within a small
      absolute tolerance (the two fold path delays in different
      orders).

    The four report comparisons (engine, macro, session and structural
    parity) cover the supplementary-constraint (hold) violation lists
    too: element, label, margin bits and order.

    Every failure carries the full generator parameters, so one seed
    reproduces it locally: the CI artifact is the JSON rendering of the
    failure and the repro command is one line. *)

type params = {
  seed : int64;
  falsey : bool;   (** use the false-path conflict pattern, not a soup *)
  phases : int;
  registers : int;
  gates : int;
  inputs : int;
  outputs : int;
  period : float;
  annotations : int;  (** random delay-annotation entries *)
  mutations : int;    (** session what-if edits in the mutation script *)
}

(** [params_of_seed seed] derives the whole generator configuration from
    the seed — the failure artifact stores nothing else. *)
val params_of_seed : int64 -> params

(** [design_of_params p] rebuilds the fuzzed design: the netlist, its
    clock system, and the random delay annotation every check applies on
    top of the lumped delay model. *)
val design_of_params :
  params -> Hb_netlist.Design.t * Hb_clock.System.t * Hb_sta.Annotation.t

type failure = {
  params : params;
  check : string;   (** which differential check diverged *)
  detail : string;  (** first divergence, human-readable *)
}

(** [repro_command f] is the one-line local repro:
    [hummingbird validate --skip-golden --fuzz-seed 0x<seed>]. *)
val repro_command : failure -> string

(** [failure_json f] is the CI failure artifact: params, check, detail
    and the repro command. *)
val failure_json : failure -> Hb_util.Json.t

(** [run_seed ?inject seed] runs every differential check on one seed
    and returns the divergences found (empty = clean). [inject]
    (default false) sabotages the cache-coherence check by dropping one
    cluster from the invalidation set after the in-place delay edit —
    the deliberate off-by-one the acceptance test proves the driver
    catches. *)
val run_seed : ?inject:bool -> int64 -> failure list

type outcome = {
  seeds_run : int;
  failures : failure list;
}

(** [run ?inject ?budget_seconds ?on_failure seeds] runs seeds in order
    until the list or the wall-clock budget (default: none) runs out.
    [on_failure] fires as each divergence is found (the CLI prints the
    repro line and writes the artifact there). *)
val run :
  ?inject:bool ->
  ?budget_seconds:float ->
  ?on_failure:(failure -> unit) ->
  int64 list ->
  outcome

(** [seed_list ~base n] derives [n] deterministic seeds from [base] —
    the fixed CI seed list. *)
val seed_list : base:int64 -> int -> int64 list

(** Seeds that once surfaced a real divergence (or guard a specific
    regression class); always part of the CI run. *)
val regression_seeds : int64 list
