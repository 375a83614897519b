(** Delay back-annotation: the [.hbd] format.

    Hummingbird's interactive mode let users make "adjustments ... to
    component delays" (paper, Section 8). An annotation overlays a base
    delay provider with per-instance measurements or scalings:

    {v
    # measured and what-if delays
    delay u42 rise 1.85 fall 1.60
    scale alu_g7 0.8
    v}

    - [delay <inst> rise <x> fall <y>] — every timing arc of the instance
      takes exactly these delays (a measurement or a contract);
    - [scale <inst> <f>] — the base provider's result for the instance is
      multiplied by [f] (a what-if speed-up or slow-down).

    Instance names are resolved when the annotated provider is applied to
    a design; annotations naming instances absent from the design are
    reported by {!unused}. *)

type entry =
  | Fixed of { rise : Hb_util.Time.t; fall : Hb_util.Time.t }
      (** every arc of the instance takes exactly these delays *)
  | Scaled of float
      (** the base provider's result is multiplied by this factor *)

type t

(** [entries t] lists the [(instance_name, entry)] pairs in file order —
    the raw material a {!Session} folds into its own override table so
    file-sourced and programmatic what-if edits share one code path. *)
val entries : t -> (string * entry) list

(** [of_entries pairs] packages programmatic overrides as an annotation. *)
val of_entries : (string * entry) list -> t

(** [parse text] reads annotation directives.
    @raise Hb_util.Text.Parse_error on malformed input. *)
val parse : string -> t

val parse_file : string -> t

val empty : t

(** [count t] is the number of annotation entries. *)
val count : t -> int

(** [apply t ~base] wraps [base] so annotated instances get their
    overridden delays; the first entry for an instance wins. The entries
    go into one name table when the provider is made, so an arc
    evaluation costs one lookup whatever the number of entries. *)
val apply : t -> base:Delays.t -> Delays.t

(** [overlay ~suffix overrides ~base] is the provider {!apply} makes,
    over a table the caller owns and may keep editing: an instance named
    in [overrides] gets its entry's delays, read on every evaluation.
    The provider's name is [base]'s plus [suffix]. *)
val overlay :
  suffix:string -> (string, entry) Hashtbl.t -> base:Delays.t -> Delays.t

(** [unused t ~design] lists annotated instance names that do not occur in
    [design] — usually a sign of a stale annotation file. One name table
    of the design serves every entry. *)
val unused : t -> design:Hb_netlist.Design.t -> string list
