(** Cycle-based functional simulation.

    A deliberately simple two-valued simulator used to validate that
    generated designs are live logic (outputs toggle, state evolves) and
    to sanity-check netlist semantics in tests. Timing is ignored —
    exactly the complement of the analyser.

    Approximations, documented and acceptable for its validation role:
    - transparent latches behave as edge-triggered registers (one sample
      per {!step});
    - a tristate driver drives its bus when its control net evaluates
      true; with several enabled drivers the last instance wins; with
      none, the bus keeps its previous value;
    - collapsed macros (whose logic function was erased) evaluate as the
      parity of their inputs. *)

type t

(** [create design] orders the combinational logic and initialises every
    net to false.
    @raise Failure when the combinational logic is cyclic. *)
val create : Hb_netlist.Design.t -> t

(** [set_input t ~port value] drives a primary input (clock ports
    included, though {!step} ignores their waveform semantics).
    @raise Not_found for unknown ports. *)
val set_input : t -> port:string -> bool -> unit

(** [step t] settles the combinational logic, samples every synchroniser,
    and settles again — one clock cycle. *)
val step : t -> unit

(** [net_value t name] reads a net.
    @raise Not_found for unknown nets. *)
val net_value : t -> string -> bool

(** [output_value t ~port] reads a primary output. *)
val output_value : t -> port:string -> bool

(** [total_toggles t] sums toggle counts over all nets. *)
val total_toggles : t -> int
