type timings = Session.timings = {
  preprocess_seconds : float;
  analysis_seconds : float;
  constraints_seconds : float;
  preprocess_wall_seconds : float;
  analysis_wall_seconds : float;
  constraints_wall_seconds : float;
  peak_rss_bytes : int option;
}

type report = Session.report = {
  context : Context.t;
  outcome : Algorithm1.outcome;
  constraints : Algorithm2.constraint_times option;
  hold_violations : Holdcheck.violation list;
  timings : timings;
}

(* One-shot runs are a session with a single query: the session path is
   the only implementation of the analysis flow, so the incremental and
   batch front ends cannot drift apart. The session is not closed — the
   report keeps its context (and warm slack cache) alive for callers
   that keep computing on it. *)
let analyse ~design ~system ?config ?delays ?generate_constraints
    ?check_hold () =
  let session = Session.create ~design ~system ?config ?delays () in
  Session.analyse ?generate_constraints ?check_hold session
