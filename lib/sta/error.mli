(** Unified analysis errors.

    The stack signals failures through its own exceptions
    ([Hb_util.Text.Parse_error], which every text reader raises,
    [Hb_util.Json.Parse_error], [Elements.Build_error],
    [Config.Config_error], [Cluster.Cycle_error], [Passes.Pass_error],
    [Failure]) plus [Sys_error] and, with the daemon,
    [Hb_util.Timeout.Timeout].
    Embedders — the CLI, the serve loop, library users of {!Session} —
    want one closed type to match on and one stable machine-readable
    code per failure class. The raising APIs are the interface;
    {!of_exn} folds their exceptions into this variant and {!wrap}
    turns any call into a [result]. *)

type t =
  | Parse of { file : string option; line : int; message : string }
      (** netlist / clock / annotation / request text rejected *)
  | Build of string    (** element-table construction (control cones, clocks) *)
  | Cycle of string    (** combinational cycle found during clustering *)
  | Pass of string     (** clock-edge inconsistency during pass planning *)
  | Timeout of float   (** wall-clock budget (seconds) exhausted *)
  | Io of string       (** file-system failure *)
  | Invalid of string  (** any other rejected input or internal invariant *)

(** [code t] is a short stable identifier for the failure class —
    ["parse"], ["build"], ["cycle"], ["pass"], ["timeout"], ["io"] or
    ["invalid"] — used as the ["code"] field of daemon error replies. *)
val code : t -> string

(** [to_string t] renders a one-line human-readable message, e.g.
    ["parse error: des.hbn:12: unknown cell nand9"]. *)
val to_string : t -> string

(** [of_exn e] classifies the known analysis exceptions; [None] for
    anything unrecognised (which should keep propagating). *)
val of_exn : exn -> t option

(** [in_file file t] attaches a file name to a [Parse] error that lacks
    one (parsers report positions only; the caller knows the path).
    Other constructors pass through unchanged. *)
val in_file : string -> t -> t

(** [reading path f] runs [f ()], a read of the file [path]; an
    exception {!of_exn} recognises escapes as {!Error}, with [path]
    attached by {!in_file}. *)
val reading : string -> (unit -> 'a) -> 'a

(** [wrap f] runs [f ()], catching exactly the exceptions {!of_exn}
    recognises. *)
val wrap : (unit -> 'a) -> ('a, t) result

exception Error of t
(** Carrier for pre-classified errors (e.g. a parse error that had a
    file name attached); recognised by {!of_exn} and {!wrap}. *)
