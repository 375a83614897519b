(** BLIF (Berkeley Logic Interchange Format) reader.

    The Berkeley Synthesis System the paper integrates with exchanged
    logic through BLIF (MIS/SIS); this reader accepts the structural
    subset needed for timing analysis:

    - [.model] / [.inputs] / [.outputs] / [.end];
    - [.gate <cell> <pin>=<net> ...] — direct library-cell instances;
    - [.names <in...> <out>] — PLA-style logic functions, turned into
      generic macro cells (one timing arc per input, characterised like a
      nand of the same fan-in); the cover lines that follow are consumed
      and, being irrelevant to timing, only their input-count consistency
      is checked;
    - [.latch <input> <output> [<type> <control>] [<init>]] — [re]/[fe]
      edge-triggered latches map to the library [dff] ([fe] directly,
      [re] through control inversion conventions noted below), [ah]/[al]
      transparent latches map to [latch]; the control net is connected to
      the latch's [ck] pin. A latch without an explicit control raises an
      error (the analyser needs a clock).

    Control-sense caveat: BLIF's [re] (rising-edge) corresponds to an
    inverted-control trailing-edge latch in the paper's model; rather than
    silently insert an inverter, the reader instantiates the flip-flop
    with its control taken straight from the named net, and the clock
    waveform description decides which edge acts. [ah] (active-high)
    transparent latches map directly; [al] (active-low) get a synthesized
    inverter on the control path, making the sense explicit in the
    netlist. Clock nets named by [.latch] controls are promoted to clock
    input ports when not driven inside the model; one that is a declared
    output is refused at the first [.latch] it clocks. *)

(** {!Hb_util.Text.Parse_error}: every malformed-input failure, carrying
    the 1-based physical line of the offending logical line (for
    continuation lines, the first physical line; for a missing
    [.model]/[.end], the last line of the text). Unknown [.latch]
    trigger types, bad cover-row widths, an empty pin or net in a
    [.gate] binding, a port declared twice, and missing terminator
    directives all surface here — never as an assertion or an anonymous
    [Failure]. *)
exception Parse_error of { line : int; message : string }

(** [parse ~library text] reads one [.model].
    @raise Parse_error on malformed input.
    @raise Failure when the result fails netlist validation. *)
val parse : library:Hb_cell.Library.t -> string -> Design.t

val parse_file : library:Hb_cell.Library.t -> string -> Design.t
