type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { position : int; message : string }

let fail position fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { position; message })) fmt

(* No request, report or golden file nests deeper than 5. The parser
   recurses once per level, and without a cap a line of a million nested
   brackets took it 1.8 s. *)
let max_depth = 512

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos >= n || text.[!pos] <> c then
      fail !pos "expected %C" c
    else incr pos
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail !pos "expected %s" word
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail !pos "unterminated string"
      else
        match text.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then fail !pos "unterminated escape";
          (match text.[!pos] with
           | '"' -> Buffer.add_char buffer '"'; incr pos
           | '\\' -> Buffer.add_char buffer '\\'; incr pos
           | '/' -> Buffer.add_char buffer '/'; incr pos
           | 'b' -> Buffer.add_char buffer '\b'; incr pos
           | 'f' -> Buffer.add_char buffer '\012'; incr pos
           | 'n' -> Buffer.add_char buffer '\n'; incr pos
           | 'r' -> Buffer.add_char buffer '\r'; incr pos
           | 't' -> Buffer.add_char buffer '\t'; incr pos
           | 'u' ->
             if !pos + 4 >= n then fail !pos "truncated \\u escape";
             let hex = String.sub text (!pos + 1) 4 in
             (match int_of_string_opt ("0x" ^ hex) with
              | None -> fail !pos "bad \\u escape %S" hex
              | Some code ->
                (* Encode the scalar as UTF-8; surrogate pairs are not
                   recombined (the daemon protocol is ASCII in practice). *)
                if code < 0x80 then Buffer.add_char buffer (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buffer
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
                end;
                pos := !pos + 5)
           | c -> fail !pos "bad escape \\%c" c);
          loop ()
        | c -> Buffer.add_char buffer c; incr pos; loop ()
    in
    loop ();
    Buffer.contents buffer
  in
  let open_level depth =
    if depth >= max_depth then fail !pos "nesting deeper than %d" max_depth;
    incr pos
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
      open_level depth;
      skip_ws ();
      if peek () = Some ']' then begin incr pos; List [] end
      else begin
        let items = ref [] in
        let rec loop () =
          items := parse_value (depth + 1) :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; loop ()
          | Some ']' -> incr pos
          | _ -> fail !pos "expected ',' or ']'"
        in
        loop ();
        List (List.rev !items)
      end
    | Some '{' ->
      open_level depth;
      skip_ws ();
      if peek () = Some '}' then begin incr pos; Obj [] end
      else begin
        let members = ref [] in
        let rec loop () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          members := (key, parse_value (depth + 1)) :: !members;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; loop ()
          | Some '}' -> incr pos
          | _ -> fail !pos "expected ',' or '}'"
        in
        loop ();
        Obj (List.rev !members)
      end
    | Some ('-' | '0' .. '9') ->
      let start = !pos in
      while
        !pos < n
        && (match text.[!pos] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false)
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub text start (!pos - start)) with
       | Some f -> Number f
       | None -> fail start "malformed number")
    | Some c -> fail !pos "unexpected character %C" c
  in
  let value = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail !pos "trailing garbage after value";
  value

let parse_result text =
  match parse text with
  | value -> Ok value
  | exception Parse_error { position; message } ->
    Error (Printf.sprintf "at byte %d: %s" position message)

let hex = "0123456789abcdef"

let add_quoted buffer s =
  Buffer.add_char buffer '"';
  let n = String.length s in
  (* [start] is the first byte not yet appended: a run of bytes that need
     no escape is appended in one blit. *)
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buffer s !start (i - !start);
      (match c with
       | '"' -> Buffer.add_string buffer "\\\""
       | '\\' -> Buffer.add_string buffer "\\\\"
       | '\n' -> Buffer.add_string buffer "\\n"
       | '\t' -> Buffer.add_string buffer "\\t"
       | '\r' -> Buffer.add_string buffer "\\r"
       | c ->
         Buffer.add_string buffer "\\u00";
         Buffer.add_char buffer hex.[Char.code c lsr 4];
         Buffer.add_char buffer hex.[Char.code c land 15]);
      start := i + 1
    end
  done;
  Buffer.add_substring buffer s !start (n - !start);
  Buffer.add_char buffer '"'

let escape s =
  let buffer = Buffer.create (String.length s + 2) in
  add_quoted buffer s;
  Buffer.sub buffer 1 (Buffer.length buffer - 2)

(* What [Printf.sprintf] prints for these formats: [Printf] calls the same
   primitive after building the format in a fresh buffer. *)
external format_float : string -> float -> string = "caml_format_float"

let add_number buffer f =
  Buffer.add_string buffer
    (if not (Float.is_finite f) then "null"
     else if Float.is_integer f && Float.abs f <= 9.007199254740992e15 then
       format_float "%.0f" f
     else
       (* Shortest representation that still round-trips a double. *)
       let s = format_float "%.12g" f in
       if float_of_string s = f then s else format_float "%.17g" f)

let rec add buffer = function
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Number f -> add_number buffer f
  | String s -> add_quoted buffer s
  | List items ->
    Buffer.add_char buffer '[';
    List.iteri
      (fun i item ->
         if i > 0 then Buffer.add_char buffer ',';
         add buffer item)
      items;
    Buffer.add_char buffer ']'
  | Obj members ->
    Buffer.add_char buffer '{';
    List.iteri
      (fun i (key, item) ->
         if i > 0 then Buffer.add_char buffer ',';
         add_quoted buffer key;
         Buffer.add_char buffer ':';
         add buffer item)
      members;
    Buffer.add_char buffer '}'

let to_string value =
  let buffer = Buffer.create 256 in
  add buffer value;
  Buffer.contents buffer

let member name = function
  | Obj members -> List.assoc_opt name members
  | _ -> None

let to_float = function Number f -> Some f | _ -> None

let to_int = function
  | Number f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_text = function String s -> Some s | _ -> None
