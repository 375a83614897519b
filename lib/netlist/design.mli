(** Frozen gate-level designs.

    A design is a bipartite graph of cell instances and nets, with primary
    input/output ports at the boundary. Build one with {!Builder}, read one
    with {!Parser}. All structures here are immutable and indexed by dense
    integer ids, which is what the analyser iterates over.

    This in-memory form (plus the [.hbn] text format) substitutes for the
    OCT database the paper's implementation used. *)

type port_direction = Port_in | Port_out

type port = {
  port_name : string;
  direction : port_direction;
  is_clock : bool;  (** input ports that are clock generator outputs *)
}

(** Either side of a net connection. *)
type endpoint =
  | Pin of { inst : int; pin : string }  (** instance pin *)
  | Port of int                          (** primary port *)

type instance = {
  inst_name : string;
  cell : Hb_cell.Cell.t;
  (** [connections] maps every connected pin name to a net id. *)
  connections : (string * int) list;
  (** Hierarchical module path, e.g. ["alu/adder"]; [""] at top level. *)
  module_path : string;
}

type net = {
  net_name : string;
  (** Driving endpoints. A net normally has exactly one driver; a bus net
      may have several, but then all of them must be clocked tristate
      driver outputs. *)
  drivers : endpoint list;
  loads : endpoint list;
  (** Total capacitive load on the net in pF (pin caps + wire estimate). *)
  load_capacitance : float;
}

type t = private {
  design_name : string;
  instances : instance array;
  nets : net array;
  ports : port array;
  port_net : int array;
      (** port id → the lowest net with the port among its endpoints, or
          [-1]; filled by {!unsafe_make} in one walk over the nets *)
}

(** [instance_count t], [net_count t], [port_count t]. *)
val instance_count : t -> int
val net_count : t -> int
val port_count : t -> int

val instance : t -> int -> instance
val net : t -> int -> net
val port : t -> int -> port

(** [net_of_pin t ~inst ~pin] is the net connected to the pin, if any. *)
val net_of_pin : t -> inst:int -> pin:string -> int option

(** [net_of_port t port_id] is the net attached to the port, if any
    (the lowest-numbered one should several list it). O(1): a lookup in
    [port_net]. *)
val net_of_port : t -> int -> int option

(** [find_instance t name] / [find_port t name] look up by name. *)
val find_instance : t -> string -> int option
val find_port : t -> string -> int option
val find_net : t -> string -> int option

(** [sync_instances t] lists ids of synchronising-element instances. *)
val sync_instances : t -> int list

(** [comb_instances t] lists ids of combinational instances. *)
val comb_instances : t -> int list

(** [clock_ports t] lists ids of ports flagged as clock sources. *)
val clock_ports : t -> int list

(** [pp_endpoint t ppf e] renders e.g. ["u42.a"] or ["port phi1"]. *)
val pp_endpoint : t -> Format.formatter -> endpoint -> unit

val endpoint_to_string : t -> endpoint -> string

(** Used by {!Builder} only. Walks the nets once to fill [port_net]. *)
val unsafe_make :
  design_name:string ->
  instances:instance array ->
  nets:net array ->
  ports:port array ->
  t

(** Used by {!Structural} only: [t] with new instance and net arrays, for
    an edit that leaves every port on the nets it was on. [ports] and
    [port_net] are kept, so an edit costs no walk over the nets. *)
val unsafe_update : t -> instances:instance array -> nets:net array -> t
