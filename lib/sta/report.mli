(** Textual reports — the CLI's and examples' output surface. *)

(** [summary report] is a short multi-line run summary: verdict, worst
    slack, iteration counts, pass statistics and timings. *)
val summary : Engine.report -> string

(** [paths_report ctx slacks ~limit] renders the worst [limit] critical
    paths with full hop detail. *)
val paths_report : Context.t -> Slacks.t -> limit:int -> string

(** [constraints_report ctx times ~limit] tabulates the re-synthesis
    constraints of the [limit] worst combinational modules on slow paths:
    instance, slack, per-pin ready and required times. *)
val constraints_report :
  Context.t -> Algorithm2.constraint_times -> limit:int -> string

(** [slack_histogram slacks ~buckets] renders a coarse distribution of
    finite endpoint slacks. *)
val slack_histogram : Slacks.t -> buckets:int -> string

(** [slow_nets ctx slacks] lists names of nets lying on too-slow paths —
    the "flag slow paths in the data base" feature; viewers (the paper
    used VEM) can highlight them. *)
val slow_nets : Context.t -> Slacks.t -> string list

(** [endpoint_report ctx ~endpoint] renders the classic per-endpoint
    timing view for one element's data input: launch and capture edges
    with their effective offsets, the worst path hop by hop with
    per-stage increments, and arrival/required/slack at the end. Returns
    a short notice when the endpoint has no constrained path. *)
val endpoint_report : Context.t -> endpoint:int -> string
