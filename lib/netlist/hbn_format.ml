module Text = Hb_util.Text

exception Parse_error = Text.Parse_error

let error = Text.error

type state = {
  library : Hb_cell.Library.t;
  mutable builder : Builder.t option;
  mutable finished : bool;
  (* The cells named so far, so a cell name is matched in place. *)
  mutable cells : Hb_cell.Cell.t list;
}

let builder_exn s lineno =
  match s.builder with
  | Some b when not s.finished -> b
  | Some _ -> error lineno "directive after 'end'"
  | None -> error lineno "expected 'design <name>' first"

let rec equals_sign text i stop =
  if i >= stop then -1
  else if String.unsafe_get text i = '=' then i
  else equals_sign text (i + 1) stop

let rec find_cell text start stop = function
  | [] -> raise Not_found
  | (cell : Hb_cell.Cell.t) :: rest ->
    if Text.spells text start stop cell.Hb_cell.Cell.name then cell
    else find_cell text start stop rest

(* The cell named by token [k] of [r]: one met earlier in this text, else
   the library's. @raise Not_found when the library has no such cell. *)
let cell_of s (r : Text.t) k =
  match find_cell r.text r.starts.(k) r.stops.(k) s.cells with
  | cell -> cell
  | exception Not_found ->
    (match Hb_cell.Library.find s.library (Text.token r k) with
     | Some cell -> s.cells <- cell :: s.cells; cell
     | None -> raise Not_found)

(* The cell's own string for the pin spelt by [text.[start] .. text.[stop - 1]],
   or a copy of the text when the cell has no such pin (the builder then
   rejects it). *)
let rec pin_name text start stop = function
  | [] -> String.sub text start (stop - start)
  | (pin : Hb_cell.Cell.pin) :: rest ->
    if Text.spells text start stop pin.Hb_cell.Cell.pin_name then
      pin.Hb_cell.Cell.pin_name
    else pin_name text start stop rest

(* [inst <name> <cell> [module=<path>] <pin>=<net> ...], with at least the
   name and the cell. Every binding is checked for its '=' before the
   builder sees the instance. *)
let parse_instance s (r : Text.t) =
  let lineno = r.line in
  let b = builder_exn s lineno in
  let text = r.text in
  let has_module =
    r.count > 3
    && r.stops.(3) - r.starts.(3) > 7
    && Text.spells text r.starts.(3) (r.starts.(3) + 7) "module="
  in
  let module_path =
    if has_module then
      Some (String.sub text (r.starts.(3) + 7) (r.stops.(3) - r.starts.(3) - 7))
    else None
  in
  let first_binding = if has_module then 4 else 3 in
  for k = first_binding to r.count - 1 do
    let start = r.starts.(k) and stop = r.stops.(k) in
    let eq = equals_sign text start stop in
    if eq < 0 then error lineno "expected <pin>=<net>, got %S" (Text.token r k);
    if eq = start || eq = stop - 1 then
      error lineno "empty pin or net in %S" (Text.token r k)
  done;
  let name = Text.token r 1 in
  try
    match cell_of s r 2 with
    | exception Not_found ->
      (* The builder rejects the unknown cell. *)
      Builder.add_instance b ?module_path ~name ~cell:(Text.token r 2)
        ~connections:[] ()
    | cell ->
      let connections = ref [] in
      for k = r.count - 1 downto first_binding do
        let start = r.starts.(k) and stop = r.stops.(k) in
        let eq = equals_sign text start stop in
        connections :=
          ( pin_name text start eq cell.Hb_cell.Cell.pins,
            String.sub text (eq + 1) (stop - eq - 1) )
          :: !connections
      done;
      Builder.add_instance_of_cell b ?module_path ~name ~cell
        ~connections:!connections ()
  with Invalid_argument message -> error lineno "%s" message

let parse_line s (r : Text.t) =
  let lineno = r.line in
  if Text.is r 0 "design" then begin
    if r.count <> 2 then error lineno "usage: design <name>";
    match s.builder with
    | Some _ -> error lineno "duplicate 'design' directive"
    | None ->
      s.builder <-
        Some (Builder.create ~name:(Text.token r 1) ~library:s.library)
  end
  else if Text.is r 0 "port" then begin
    let b = builder_exn s lineno in
    let direction, is_clock =
      if r.count = 3 && Text.is r 1 "in" then (Design.Port_in, false)
      else if r.count = 4 && Text.is r 1 "in" && Text.is r 3 "clock" then
        (Design.Port_in, true)
      else if r.count = 3 && Text.is r 1 "out" then (Design.Port_out, false)
      else error lineno "usage: port in|out <name> [clock]"
    in
    try Builder.add_port b ~name:(Text.token r 2) ~direction ~is_clock
    with Invalid_argument message -> error lineno "%s" message
  end
  else if Text.is r 0 "inst" && r.count >= 3 then parse_instance s r
  else if Text.is r 0 "end" && r.count = 1 then begin
    ignore (builder_exn s lineno);
    s.finished <- true
  end
  else error lineno "unknown directive %S" (Text.token r 0)

let parse ~library text =
  let s = { library; builder = None; finished = false; cells = [] } in
  let last = Text.walk text (parse_line s) in
  match s.builder with
  | None -> error 1 "empty input: no 'design' directive"
  | Some b ->
    if not s.finished then error last "missing 'end' directive";
    Builder.freeze b

let parse_file ~library path = parse ~library (Text.read_file path)

let add_design buffer design =
  let add = Buffer.add_string buffer in
  add "design ";
  add design.Design.design_name;
  Buffer.add_char buffer '\n';
  Array.iter
    (fun p ->
       (match p.Design.direction with
        | Design.Port_in -> add "port in "
        | Design.Port_out -> add "port out ");
       add p.Design.port_name;
       (match p.Design.direction with
        | Design.Port_in when p.Design.is_clock -> add " clock"
        | Design.Port_in | Design.Port_out -> ());
       Buffer.add_char buffer '\n')
    design.Design.ports;
  Array.iter
    (fun inst ->
       add "inst ";
       add inst.Design.inst_name;
       Buffer.add_char buffer ' ';
       add inst.Design.cell.Hb_cell.Cell.name;
       if inst.Design.module_path <> "" then begin
         add " module=";
         add inst.Design.module_path
       end;
       List.iter
         (fun (pin, net) ->
            Buffer.add_char buffer ' ';
            add pin;
            Buffer.add_char buffer '=';
            add design.Design.nets.(net).Design.net_name)
         inst.Design.connections;
       Buffer.add_char buffer '\n')
    design.Design.instances;
  add "end\n"

let write design =
  let buffer = Buffer.create 4096 in
  add_design buffer design;
  Buffer.contents buffer

let write_file design path =
  let buffer = Buffer.create 4096 in
  add_design buffer design;
  let oc = open_out path in
  (try Buffer.output_buffer oc buffer
   with e -> close_out oc; raise e);
  close_out oc
