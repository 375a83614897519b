exception Parse_error of { line : int; message : string }

let error line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

(* The text is read in place: a line's tokens are the offsets
   [starts.(k)] (first byte) and [stops.(k)] (one past the last) into
   [text], for [k < count]. Only ' ' separates tokens. *)
type state = {
  text : string;
  library : Hb_cell.Library.t;
  mutable starts : int array;
  mutable stops : int array;
  mutable count : int;
  mutable builder : Builder.t option;
  mutable finished : bool;
  (* The cells named so far, so a cell name is matched in place. *)
  mutable cells : Hb_cell.Cell.t list;
}

let token s k = String.sub s.text s.starts.(k) (s.stops.(k) - s.starts.(k))

(* The scans below are top-level functions taking every value they read,
   so that none allocates a closure per token. *)
let rec same_bytes text start word i length =
  i = length
  || (String.unsafe_get text (start + i) = String.unsafe_get word i
      && same_bytes text start word (i + 1) length)

(* Whether [text.[start] .. text.[stop - 1]] spells [word]. *)
let spells text start stop word =
  stop - start = String.length word
  && same_bytes text start word 0 (String.length word)

let is s k word = spells s.text s.starts.(k) s.stops.(k) word

(* Tokenises the line starting at [first] and returns the offset of its
   '\n', or the text's length for a last line without one. *)
let tokenise s first =
  let text = s.text in
  let length = String.length text in
  s.count <- 0;
  let i = ref first in
  while !i < length && text.[!i] <> '\n' do
    if text.[!i] = ' ' then incr i
    else begin
      let start = !i in
      while !i < length && text.[!i] <> ' ' && text.[!i] <> '\n' do incr i done;
      if s.count = Array.length s.starts then begin
        let grow a = Array.append a (Array.make (Array.length a) 0) in
        s.starts <- grow s.starts;
        s.stops <- grow s.stops
      end;
      s.starts.(s.count) <- start;
      s.stops.(s.count) <- !i;
      s.count <- s.count + 1
    end
  done;
  !i

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
    if spells text start stop cell.Hb_cell.Cell.name then cell
    else find_cell text start stop rest

(* The cell named by token [k]: one met earlier in this text, else the
   library's. @raise Not_found when the library has no such cell. *)
let cell_of s k =
  match find_cell s.text s.starts.(k) s.stops.(k) s.cells with
  | cell -> cell
  | exception Not_found ->
    (match Hb_cell.Library.find s.library (token s k) with
     | Some cell -> s.cells <- cell :: s.cells; cell
     | None -> raise Not_found)

(* The cell's own string for the pin spelt by [text.[start] .. text.[stop - 1]],
   or a copy of the text when the cell has no such pin (the builder then
   rejects it). *)
let rec pin_name text start stop = function
  | [] -> String.sub text start (stop - start)
  | (pin : Hb_cell.Cell.pin) :: rest ->
    if spells text start stop pin.Hb_cell.Cell.pin_name then
      pin.Hb_cell.Cell.pin_name
    else pin_name text start stop rest

(* [inst <name> <cell> [module=<path>] <pin>=<net> ...], with at least the
   name and the cell. Every binding is checked for its '=' before the
   builder sees the instance. *)
let parse_instance s lineno =
  let b = builder_exn s lineno in
  let text = s.text in
  let has_module =
    s.count > 3
    && s.stops.(3) - s.starts.(3) > 7
    && spells text s.starts.(3) (s.starts.(3) + 7) "module="
  in
  let module_path =
    if has_module then
      Some (String.sub text (s.starts.(3) + 7) (s.stops.(3) - s.starts.(3) - 7))
    else None
  in
  let first_binding = if has_module then 4 else 3 in
  for k = first_binding to s.count - 1 do
    let start = s.starts.(k) and stop = s.stops.(k) in
    let eq = equals_sign text start stop in
    if eq < 0 then error lineno "expected <pin>=<net>, got %S" (token s k);
    if eq = start || eq = stop - 1 then
      error lineno "empty pin or net in %S" (token s k)
  done;
  let name = token s 1 in
  try
    match cell_of s 2 with
    | exception Not_found ->
      (* The builder rejects the unknown cell. *)
      Builder.add_instance b ?module_path ~name ~cell:(token s 2)
        ~connections:[] ()
    | cell ->
      let connections = ref [] in
      for k = s.count - 1 downto first_binding do
        let start = s.starts.(k) and stop = s.stops.(k) in
        let eq = equals_sign text start stop in
        connections :=
          ( pin_name text start eq cell.Hb_cell.Cell.pins,
            String.sub text (eq + 1) (stop - eq - 1) )
          :: !connections
      done;
      Builder.add_instance_of_cell b ?module_path ~name ~cell
        ~connections:!connections ()
  with Invalid_argument message -> error lineno "%s" message

let parse_line s lineno =
  if s.count = 0 || s.text.[s.starts.(0)] = '#' then ()
  else if is s 0 "design" then begin
    if s.count <> 2 then error lineno "usage: design <name>";
    match s.builder with
    | Some _ -> error lineno "duplicate 'design' directive"
    | None ->
      s.builder <- Some (Builder.create ~name:(token s 1) ~library:s.library)
  end
  else if is s 0 "port" then begin
    let b = builder_exn s lineno in
    let direction, is_clock =
      if s.count = 3 && is s 1 "in" then (Design.Port_in, false)
      else if s.count = 4 && is s 1 "in" && is s 3 "clock" then
        (Design.Port_in, true)
      else if s.count = 3 && is s 1 "out" then (Design.Port_out, false)
      else error lineno "usage: port in|out <name> [clock]"
    in
    try Builder.add_port b ~name:(token s 2) ~direction ~is_clock
    with Invalid_argument message -> error lineno "%s" message
  end
  else if is s 0 "inst" && s.count >= 3 then parse_instance s lineno
  else if is s 0 "end" && s.count = 1 then begin
    ignore (builder_exn s lineno);
    s.finished <- true
  end
  else error lineno "unknown directive %S" (token s 0)

let parse ~library text =
  let s =
    { text; library; starts = Array.make 16 0; stops = Array.make 16 0;
      count = 0; builder = None; finished = false; cells = [] }
  in
  (* Lines are numbered from 1; a final '\n' ends one more, empty line. *)
  let rec lines first lineno =
    let newline = tokenise s first in
    parse_line s lineno;
    if newline < String.length text then lines (newline + 1) (lineno + 1)
    else lineno
  in
  let last = lines 0 1 in
  match s.builder with
  | None -> error 1 "empty input: no 'design' directive"
  | Some b ->
    if not s.finished then error last "missing 'end' directive";
    Builder.freeze b

let parse_file ~library path =
  let ic = open_in path in
  let length = in_channel_length ic in
  let text =
    try really_input_string ic length
    with e -> close_in ic; raise e
  in
  close_in ic;
  parse ~library text

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
