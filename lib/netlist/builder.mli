(** Incremental construction of designs.

    A builder accumulates ports, instances and net connections by name and
    {!freeze}s into a validated {!Design.t}. Nets spring into existence the
    first time they are named. *)

type t

(** [create ~name ~library] starts an empty design. Instances added later
    name cells from [library]. *)
val create : name:string -> library:Hb_cell.Library.t -> t

val library : t -> Hb_cell.Library.t

(** [add_port t ~name ~direction ~is_clock] declares a primary port and
    implicitly attaches it to the net of the same name.
    @raise Invalid_argument on duplicate port names. *)
val add_port :
  t -> name:string -> direction:Design.port_direction -> is_clock:bool -> unit

(** [add_instance t ~name ~cell ~connections] instantiates library cell
    [cell]; [connections] maps pin names to net names. Unknown cells,
    duplicate instance names and unknown pins are rejected.
    [module_path] defaults to [""] (top level). *)
val add_instance :
  t ->
  ?module_path:string ->
  name:string ->
  cell:string ->
  connections:(string * string) list ->
  unit ->
  unit

(** [add_instance_of_cell t ~name ~cell ~connections] is {!add_instance}
    for a cell value not present in the library (e.g. a collapsed macro). *)
val add_instance_of_cell :
  t ->
  ?module_path:string ->
  name:string ->
  cell:Hb_cell.Cell.t ->
  connections:(string * string) list ->
  unit ->
  unit

(** Wire capacitance added per load on a net, pF (0.015). {!freeze} and
    {!Structural}'s edits compute a net's load capacitance with it. *)
val wire_capacitance_per_load : float

(** [freeze t] validates and produces the immutable design:
    - every data/control input pin of every instance is connected;
    - every net has exactly one driver (an input port or an output pin),
      or only tristate driver outputs; so every output port is driven.

    Nets are numbered with the ports' nets first, in port order, then in
    order of first mention by instances, wherever the ports were added.
    [t] is left as it was and may be extended and frozen again.
    @raise Failure with a readable message when validation fails: the
    first unconnected input in instance order, else the lowest-numbered
    net that fails. *)
val freeze : t -> Design.t
