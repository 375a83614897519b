(** Id-stable structural surgery on frozen designs.

    Edits are staged on a {!Batch}: one copy of the input's instance and
    net arrays, edited in place and finished into a fresh {!Design.t}
    that shares every untouched instance and net record with its input.
    Ids never shift: new instances and nets are appended past the old
    counts, and removed instances become tombstones (empty connection
    list) whose endpoints are stripped from their nets. Callers can
    therefore map "what changed" back onto analysis structures keyed by
    the old ids.

    Net load capacitances are recomputed with {!Builder}'s exact
    formula (pin capacitances in loads order plus the per-load wire
    estimate), so an edited design is bit-identical to the same design
    frozen from scratch.

    All validation failures raise [Invalid_argument] with a
    ["Structural.<op>: ..."] message; no operation mutates its input
    design, and an edit that raises leaves its batch as it was. *)

(** A staged batch of edits. *)
module Batch : sig
  type t

  (** [stage ?appends design] copies [design]'s instance and net arrays
      once, with room for [appends] (default 0) inserted buffers; an
      insert past that room copies the arrays again. *)
  val stage : ?appends:int -> Design.t -> t

  (** The staged design's counts and records, earlier edits included.
      @raise Invalid_argument on an id out of range. *)
  val instance_count : t -> int
  val net_count : t -> int
  val instance : t -> int -> Design.instance
  val net : t -> int -> Design.net

  (** The edits below, applied in place on the batch. Each checks its
      arguments against the staged design before it writes anything. *)
  val insert_buffer :
    t ->
    net:int ->
    cell:Hb_cell.Cell.t ->
    ?inst_name:string ->
    ?net_name:string ->
    unit ->
    unit

  val resize_gate : t -> inst:int -> cell:Hb_cell.Cell.t -> unit
  val remove_gate : t -> inst:int -> unit
  val rewire_pin : t -> inst:int -> pin:string -> net:int -> unit

  (** [finish t] is the edited design. It owns the staging arrays, so
      [t] takes no further edit.
      @raise Invalid_argument when [t] was already finished. *)
  val finish : t -> Design.t
end

(** {2 One-edit forms}

    Each stages a batch of one edit on [design] and finishes it. *)

(** [insert_buffer design ~net ~cell ()] splits [net] at its driver: a
    new net takes the original driver, and a new instance of [cell] (a
    single-input single-output combinational cell) drives [net]. The
    original net keeps its id and its loads. Optional [inst_name] /
    [net_name] override the generated names.
    @raise Invalid_argument if [net] is not driven by exactly one
    combinational instance, if [cell] is not a buffer-shaped cell, or
    if a chosen name already exists. *)
val insert_buffer :
  Design.t ->
  net:int ->
  cell:Hb_cell.Cell.t ->
  ?inst_name:string ->
  ?net_name:string ->
  unit ->
  Design.t

(** [resize_gate design ~inst ~cell] swaps the cell of combinational
    instance [inst] for [cell]; every connected pin must exist on
    [cell] with the same role, and every input pin of [cell] must be
    connected. Fan-in net capacitances are refreshed for the new pin
    loads.
    @raise Invalid_argument on pin mismatch or a non-combinational
    target. *)
val resize_gate : Design.t -> inst:int -> cell:Hb_cell.Cell.t -> Design.t

(** [remove_gate design ~inst] tombstones combinational instance
    [inst]: its connection list empties and its endpoints leave their
    nets (the output net becomes driverless; dangling logic is the
    caller's concern).
    @raise Invalid_argument if [inst] is synchronising or already
    removed. *)
val remove_gate : Design.t -> inst:int -> Design.t

(** [rewire_pin design ~inst ~pin ~net] moves input pin [pin] of
    combinational instance [inst] onto [net]; both the old and new
    nets' capacitances are refreshed.
    @raise Invalid_argument if [pin] is an output, unconnected, or
    already on [net]. *)
val rewire_pin : Design.t -> inst:int -> pin:string -> net:int -> Design.t
