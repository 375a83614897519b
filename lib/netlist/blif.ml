exception Parse_error = Hb_util.Text.Parse_error

let error = Hb_util.Text.error

(* Logical lines: '#' comments stripped, '\' continuations joined. Returns
   (line_number_of_first_physical_line, tokens). *)
let logical_lines text =
  let physical = String.split_on_char '\n' text in
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let rec join acc current current_line number = function
    | [] ->
      let acc =
        match current with
        | Some tokens -> (current_line, tokens) :: acc
        | None -> acc
      in
      List.rev acc
    | line :: rest ->
      let line = strip_comment line in
      let continued =
        let trimmed = String.trim line in
        String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = '\\'
      in
      let content =
        if continued then
          let trimmed = String.trim line in
          String.sub trimmed 0 (String.length trimmed - 1)
        else line
      in
      let tokens =
        String.split_on_char ' ' content
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> "")
      in
      (match current, tokens with
       | None, [] -> join acc None 0 (number + 1) rest
       | None, tokens ->
         if continued then join acc (Some tokens) number (number + 1) rest
         else join ((number, tokens) :: acc) None 0 (number + 1) rest
       | Some pending, tokens ->
         let merged = pending @ tokens in
         if continued then join acc (Some merged) current_line (number + 1) rest
         else join ((current_line, merged) :: acc) None 0 (number + 1) rest)
  in
  join [] None 0 1 physical

(* A generic timing model for .names logic: characterised like a complex
   gate whose delay grows with fan-in. *)
let names_delay fan_in =
  let n = float_of_int (Stdlib.max 1 fan_in) in
  Hb_cell.Delay_model.make
    ~rise:(Hb_cell.Delay_model.arc ~intrinsic:(0.35 +. (0.15 *. n)) ~slope:(9.0 +. n))
    ~fall:
      (Hb_cell.Delay_model.arc
         ~intrinsic:((0.35 +. (0.15 *. n)) *. 0.9)
         ~slope:((9.0 +. n) *. 0.85))

let names_cell ~fan_in =
  let pins =
    List.init fan_in (fun i ->
        { Hb_cell.Cell.pin_name = Printf.sprintf "i%d" i;
          role = Hb_cell.Cell.Data_in;
          capacitance = 0.012 })
    @ [ { Hb_cell.Cell.pin_name = "o"; role = Hb_cell.Cell.Data_out;
          capacitance = 0.0 } ]
  in
  let delay = names_delay fan_in in
  let arcs =
    List.init fan_in (fun i ->
        { Hb_cell.Cell.from_pin = Printf.sprintf "i%d" i; to_pin = "o"; delay })
  in
  Hb_cell.Cell.make
    ~name:(Printf.sprintf "blif_names%d" fan_in)
    ~kind:(Hb_cell.Kind.Comb (Hb_cell.Kind.Macro fan_in))
    ~pins ~timing:(Hb_cell.Cell.Comb_timing arcs)
    ~area:(1.0 +. (0.8 *. float_of_int fan_in))
    ~drive:1

type latch_spec = {
  l_line : int;
  l_input : string;
  l_output : string;
  l_kind : string;   (* re / fe / ah / al *)
  l_control : string;
}

type names_spec = {
  n_line : int;
  n_inputs : string list;
  n_output : string;
}

type gate_spec = {
  g_line : int;
  g_cell : string;
  g_bindings : (string * string) list;
}

type model = {
  mutable name : string option;
  mutable inputs : (string * int) list;   (* (name, line), reversed *)
  mutable outputs : (string * int) list;  (* (name, line), reversed *)
  mutable latches : latch_spec list;  (* reversed *)
  mutable names : names_spec list;    (* reversed *)
  mutable gates : gate_spec list;     (* reversed *)
  mutable ended : bool;
}

let split_binding line token =
  match String.index_opt token '=' with
  | None -> error line "expected <pin>=<net>, got %S" token
  | Some i when i = 0 || i = String.length token - 1 ->
    error line "empty pin or net in %S" token
  | Some i ->
    ( String.sub token 0 i,
      String.sub token (i + 1) (String.length token - i - 1) )

let is_cover_row tokens =
  match tokens with
  | [ bits ] | [ bits; _ ] ->
    String.for_all (fun c -> c = '0' || c = '1' || c = '-') bits
  | _ -> false

let parse ~library text =
  let model =
    { name = None; inputs = []; outputs = []; latches = []; names = [];
      gates = []; ended = false }
  in
  let pending_names : names_spec option ref = ref None in
  let finish_names () = pending_names := None in
  let handle (line, tokens) =
    if model.ended then error line "directive after .end"
    else
      match tokens with
      | ".model" :: rest ->
        finish_names ();
        (match model.name, rest with
         | Some _, _ -> error line "duplicate .model"
         | None, [ name ] -> model.name <- Some name
         | None, _ -> error line ".model expects exactly one name")
      | ".inputs" :: rest ->
        finish_names ();
        model.inputs <-
          List.rev_append (List.map (fun n -> (n, line)) rest) model.inputs
      | ".outputs" :: rest ->
        finish_names ();
        model.outputs <-
          List.rev_append (List.map (fun n -> (n, line)) rest) model.outputs
      | ".names" :: rest ->
        finish_names ();
        (match List.rev rest with
         | output :: rev_inputs ->
           let spec =
             { n_line = line; n_inputs = List.rev rev_inputs; n_output = output }
           in
           model.names <- spec :: model.names;
           pending_names := Some spec
         | [] -> error line ".names expects at least an output")
      | ".latch" :: rest ->
        finish_names ();
        (match rest with
         | [ input; output; kind; control ]
         | [ input; output; kind; control; _ ] ->
           (* The trigger type is validated where it is consumed, in the
              latch builder below — one positioned diagnostic site. *)
           model.latches <-
             { l_line = line; l_input = input; l_output = output;
               l_kind = kind; l_control = control }
             :: model.latches
         | [ _; _ ] | [ _; _; _ ] ->
           error line ".latch without a control clock is not analysable"
         | _ -> error line "malformed .latch")
      | ".gate" :: cell :: bindings ->
        finish_names ();
        model.gates <-
          { g_line = line; g_cell = cell;
            g_bindings = List.map (split_binding line) bindings }
          :: model.gates
      | ".end" :: _ ->
        finish_names ();
        model.ended <- true
      | directive :: _ when String.length directive > 0 && directive.[0] = '.' ->
        error line "unsupported directive %S" directive
      | tokens when is_cover_row tokens ->
        (match !pending_names with
         | None -> error line "cover row outside .names"
         | Some spec ->
           let width =
             match tokens with
             | [ bits; _ ] -> String.length bits
             | [ bits ] -> if spec.n_inputs = [] then 0 else String.length bits
             | _ -> -1
           in
           let expected = List.length spec.n_inputs in
           (* A single-token row for a constant function carries only the
              output value. *)
           if expected > 0 && width <> expected then
             error line "cover row width %d, expected %d" width expected)
      | _ -> error line "unrecognised line"
  in
  List.iter handle (logical_lines text);
  let last_line =
    let physical = String.split_on_char '\n' text in
    let n = List.length physical in
    (* A trailing newline produces an empty final fragment, not a line. *)
    match List.rev physical with
    | "" :: _ when n > 1 -> n - 1
    | _ -> n
  in
  if not model.ended then error last_line "missing .end";
  let name =
    match model.name with
    | Some n -> n
    | None -> error last_line "missing .model"
  in
  (* Clock nets: latch controls (after accounting for al-inversion) that
     are either declared inputs (flagged as clocks) or undeclared (new
     clock ports). *)
  let declared_inputs = List.rev model.inputs in
  let declared_outputs = List.rev model.outputs in
  let latches = List.rev model.latches in
  let control_nets =
    List.sort_uniq String.compare (List.map (fun l -> l.l_control) latches)
  in
  let driven_nets =
    List.sort_uniq String.compare
      (List.map (fun l -> l.l_output) model.latches
       @ List.map (fun n -> n.n_output) model.names
       @ List.concat_map
           (fun g ->
              List.filter_map
                (fun (pin, net) ->
                   match Hb_cell.Library.find library g.g_cell with
                   | None -> None
                   | Some cell ->
                     (match Hb_cell.Cell.find_pin cell pin with
                      | Some p when p.Hb_cell.Cell.role = Hb_cell.Cell.Data_out ->
                        Some net
                      | Some _ | None -> None))
                g.g_bindings)
           model.gates)
  in
  let builder = Builder.create ~name ~library in
  (* Ports reach the builder inputs first, in file order, so a name
     declared twice is refused at its second declaration in that order. *)
  let add_port ~direction ~is_clock (name, line) =
    try Builder.add_port builder ~name ~direction ~is_clock
    with Invalid_argument message -> error line "%s" message
  in
  List.iter
    (fun ((input, _) as port) ->
       add_port ~direction:Design.Port_in
         ~is_clock:(List.mem input control_nets) port)
    declared_inputs;
  List.iter (add_port ~direction:Design.Port_out ~is_clock:false)
    declared_outputs;
  (* Promote undeclared, undriven control nets to clock ports, each at
     the line of the first .latch it clocks (a declared output is
     refused there). *)
  List.iter
    (fun control ->
       if (not (List.mem_assoc control declared_inputs))
       && not (List.mem control driven_nets) then
         let first = List.find (fun l -> l.l_control = control) latches in
         add_port ~direction:Design.Port_in ~is_clock:true
           (control, first.l_line))
    control_nets;
  (* Latches. *)
  List.iteri
    (fun i latch ->
       let cell, control_net =
         match latch.l_kind with
         | "re" | "fe" -> ("dff", latch.l_control)
         | "ah" -> ("latch", latch.l_control)
         | "al" ->
           (* Make the active-low sense explicit with an inverter. *)
           let inverted = Printf.sprintf "blif_nck%d" i in
           Builder.add_instance builder
             ~name:(Printf.sprintf "blif_ctlinv%d" i)
             ~cell:"inv_x2"
             ~connections:[ ("a", latch.l_control); ("y", inverted) ]
             ();
           ("latch", inverted)
         | other ->
           error latch.l_line
             "unsupported latch trigger type %S (expected re, fe, ah or al)"
             other
       in
       Builder.add_instance builder
         ~name:(Printf.sprintf "blif_l%d" i)
         ~cell
         ~connections:
           [ ("d", latch.l_input); ("ck", control_net); ("q", latch.l_output) ]
         ())
    latches;
  (* .names macros. *)
  List.iteri
    (fun i spec ->
       let fan_in = List.length spec.n_inputs in
       let cell = names_cell ~fan_in in
       let connections =
         List.mapi (fun k net -> (Printf.sprintf "i%d" k, net)) spec.n_inputs
         @ [ ("o", spec.n_output) ]
       in
       Builder.add_instance_of_cell builder
         ~name:(Printf.sprintf "blif_n%d" i)
         ~cell ~connections ())
    (List.rev model.names);
  (* .gate instances. *)
  List.iteri
    (fun i gate ->
       try
         Builder.add_instance builder
           ~name:(Printf.sprintf "blif_g%d" i)
           ~cell:gate.g_cell ~connections:gate.g_bindings ()
       with Invalid_argument message -> error gate.g_line "%s" message)
    (List.rev model.gates);
  Builder.freeze builder

let parse_file ~library path = parse ~library (Hb_util.Text.read_file path)
