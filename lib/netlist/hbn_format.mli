(** The [.hbn] textual netlist format.

    Hummingbird's substitute for the OCT database: a small, line-oriented
    description that round-trips through {!write} / {!parse}.

    {v
    # comment
    design counter
    port in clk clock
    port in reset
    port out done
    inst u1 dff d=n1 ck=clk q=n2
    inst u2 inv_x1 module=ctl a=n2 y=n1
    end
    v}

    Grammar, one directive per line:
    - [design <name>] — must come first;
    - [port in <name> [clock]] / [port out <name>];
    - [inst <instance> <cell> [module=<path>] <pin>=<net> ...];
    - [end] — must come last;
    - blank lines and lines whose first token starts with [#] are ignored.

    Only [' '] separates tokens: a tab or a ['\r'] is part of one. *)

(** {!Hb_util.Text.Parse_error}. *)
exception Parse_error of { line : int; message : string }

(** [parse ~library text] builds the design described by [text].
    @raise Parse_error on malformed input, a line that {!Builder}
    refuses (a duplicate port, say) included.
    @raise Failure when the netlist fails {!Builder.freeze} validation. *)
val parse : library:Hb_cell.Library.t -> string -> Design.t

(** [parse_file ~library path] reads and parses [path]. *)
val parse_file : library:Hb_cell.Library.t -> string -> Design.t

(** [write design] renders the design in [.hbn] syntax.

    Collapsed-macro instances reference synthetic cell names that are not in
    the standard library, so designs containing them do not round-trip. *)
val write : Design.t -> string

(** [write_file design path] writes {!write}'s output to [path]. *)
val write_file : Design.t -> string -> unit
