(** Persistent analysis sessions: build once, query many times.

    {!Engine.analyse} rebuilds the element table, re-extracts clusters
    and re-plans passes on every call — the right shape for a one-shot
    CLI run, and exactly the wrong one for interactive use, where the
    paper's Section 8 workflow ("adjustments may be made to component
    delays ... and the analysis rerun") asks the same design hundreds of
    what-if questions. A session is the persistent handle that workflow
    wants: it owns the {!Context.t} (elements, clusters, pass plans),
    the incremental slack cache, its delay-override table and the
    process-wide domain pool for the lifetime of a design, so a
    mutate-then-query cycle costs one targeted cluster refresh instead
    of a full preprocess.

    {2 Edits and queries}

    All mutation goes through {!apply}: a batch of typed {!Edit.t}
    commands, validated as a whole and applied atomically. Delay edits
    re-evaluate only the arcs of the touched instances and invalidate
    only the clusters carrying them; offset edits bump the owning
    element's version; structural ECO commands (buffer insertion, gate
    resizing/removal, net rewiring) swap in the edited design and
    rebuild only the clusters they touch, carrying every other
    cluster's graph, plan, cached slacks and timing macro across
    unchanged. Queries ({!analyse}, {!worst_paths}, {!constraints},
    {!hold}) share one cached Algorithm 1 state —
    repeated queries without intervening edits are served from cache,
    and after an edit the next query re-runs analysis through the
    dirty-cluster path, re-evaluating only what the edit disturbed.

    Every analysis starts from the session's {e baseline} offsets (the
    design's initial offsets, plus any [Set_offset] edits), so a
    session query returns bit-for-bit the report a fresh
    {!Engine.analyse} would produce on the equivalently edited design —
    the parity the test-suite asserts, for structural edits too.

    {2 Errors}

    The raising forms are the API: they raise {!Error.Error} or one of
    the exceptions {!Error.of_exn} classifies, and [Error.wrap (fun ()
    -> ...)] turns any call into a [(_, Error.t) result]. The one
    result-typed form, {!apply_r}, exists because its rejection carries
    the index of the failing command. Exceptions thrown mid-analysis
    (including {!Hb_util.Timeout.Timeout}) leave the session usable:
    the slack cache is dropped and offsets restored before the
    exception propagates.

    {2 Telemetry}

    Sessions feed the [session.*] counters: [session.analyses] (actual
    Algorithm 1 runs), [session.report_reuses] (queries served from the
    cached analysis), [session.mutations] (applied edit batches). *)

(** Per-phase cost on both clocks; see {!Engine.timings}. In a session
    the preprocess cost is paid at {!create} and charged to the first
    {!analyse} report; later reports show 0. Sessions restored from a
    snapshot report 0. *)
type timings = {
  preprocess_seconds : float;
  analysis_seconds : float;
  constraints_seconds : float;
  preprocess_wall_seconds : float;
  analysis_wall_seconds : float;
  constraints_wall_seconds : float;
  peak_rss_bytes : int option;
      (** process peak RSS sampled when the report was built; [None]
          when the platform exposes no high-water mark *)
}

type report = {
  context : Context.t;
  outcome : Algorithm1.outcome;
  constraints : Algorithm2.constraint_times option;
  hold_violations : Holdcheck.violation list;
  timings : timings;
}

type t

(** [create ~design ~system ?config ?delays ()] preprocesses the
    design (element table, clusters, pass plans) and returns the live
    handle. [delays] is the {e base} provider; the session wraps it so
    later delay overrides apply on top, exactly as {!Annotation.apply}
    would. Honours [config.telemetry] the same way {!Engine.analyse}
    does. *)
val create :
  design:Hb_netlist.Design.t ->
  system:Hb_clock.System.t ->
  ?config:Config.t ->
  ?delays:Delays.t ->
  unit ->
  t

(** The live context. Structural edits swap it; don't cache it across
    session calls. *)
val context : t -> Context.t

(** {2 Edits}

    {!apply_r} is the one mutation entry point. A batch is validated
    command by command against a scratch copy of the design — later
    commands see the effects of earlier ones — and nothing touches the
    session until the whole batch has passed, so a rejected batch is a
    true no-op. Structural commands are refused when they would touch a
    control cone (clock trees and enable logic must keep their arrival
    times) or close a combinational cycle. *)

(** What an applied batch did. *)
type apply_result = {
  applied : int;       (** commands in the batch *)
  structural : int;    (** of which structural ECO commands *)
  clusters_rebuilt : int;
      (** clusters re-extracted from scratch by the structural commit;
          every other cluster carried its graph, plan, cached slack
          rows and timing macro across unchanged *)
  clusters_invalidated : int;
      (** clusters whose cached results were dropped by delay
          overrides *)
}

(** Why a batch was rejected. [failed_index] names the offending
    command (0-based) when the failure is attributable to one. *)
type apply_error = {
  failed_index : int option;
  error : Error.t;
}

val apply_r : t -> Edit.t list -> (apply_result, apply_error) result

(** Exception form of {!apply_r}: raises {!Error.Error} with the
    command index folded into the message. *)
val apply : t -> Edit.t list -> apply_result

(** {2 Queries} *)

(** [analyse ?generate_constraints ?check_hold t] returns the same
    report {!Engine.analyse} would: Algorithm 1 (cached across calls),
    optionally Algorithm 2 (offsets snapshotted around it) and the hold
    checks. Repeated calls without intervening edits reuse every
    cached phase. *)
val analyse : ?generate_constraints:bool -> ?check_hold:bool -> t -> report

(** [worst_paths t ~limit] traces the [limit] worst slack paths of
    the current analysis (running it if needed). *)
val worst_paths : t -> limit:int -> Paths.path list

(** [constraints t] returns Algorithm 2's constraint times (cached). *)
val constraints : t -> Algorithm2.constraint_times

(** [hold t] returns the supplementary minimum-delay check results
    (cached). *)
val hold : t -> Holdcheck.violation list

(** [is_cached ?constraints ?hold t] is [true] when a query needing the
    analysis (plus Algorithm 2 constraints and/or hold checks, per the
    flags) would be served entirely from the session's caches, touching
    no session state. Queries that are {e not} fully cached mutate the
    session (offsets are restored and moved by Algorithm 1/2) and must
    be serialized with other access; fully cached ones are read-only and
    may run concurrently — the serve layer's read-lock fast path. The
    answer is advisory: a concurrent mutation can invalidate it, so the
    caller must re-check under the lock it chose. *)
val is_cached : ?constraints:bool -> ?hold:bool -> t -> bool

(** {2 Snapshots}

    A snapshot is the marshalled session state — preprocessed context,
    slack/macro caches, override table, baseline offsets and cached
    query results — wrapped in {!Snapshot}'s self-checking frame.
    Restoring one skips preprocessing entirely: a warm replica starts
    answering queries bit-identically to the session that was saved,
    at a small fraction of the cold-start cost. Snapshots are only
    readable by the engine build that wrote them (the frame carries an
    executable fingerprint), and only sessions on the [lumped] or
    default [rc] delay providers can be saved — providers are closures,
    rebuilt by name on restore. *)

(** [save_snapshot t ~path] writes the session's state atomically to
    [path]. Fails with [Error.Invalid] on a non-restorable delay
    provider, [Error.Io] on filesystem trouble. *)
val save_snapshot : t -> path:string -> unit

(** [of_snapshot ~path] restores a session from a snapshot file.
    Fails with [Error.Invalid] on a corrupt, truncated,
    version-mismatched or foreign-build snapshot (see
    {!Snapshot.read}), [Error.Io] when the file cannot be read. *)
val of_snapshot : path:string -> t

(** [close ?shutdown_pool t] releases the session's caches; further use
    raises {!Error.Error} ([Invalid _]). [shutdown_pool] (default
    [false]) also tears down the process-wide domain pool — for daemon
    shutdown, where the session is the pool's only client. Idempotent. *)
val close : ?shutdown_pool:bool -> t -> unit
