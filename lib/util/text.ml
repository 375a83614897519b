exception Parse_error of { line : int; message : string }

let error line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

let read_file path =
  let ic = open_in path in
  match really_input_string ic (in_channel_length ic) with
  | text -> close_in ic; text
  | exception e -> close_in_noerr ic; raise e

let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try output_string oc content with e -> close_out_noerr oc; raise e);
  close_out oc;
  Sys.rename tmp path

type t = {
  text : string;
  mutable starts : int array;
  mutable stops : int array;
  mutable count : int;
  mutable line : int;
}

(* The scans below are top-level functions taking every value they read,
   so that none allocates a closure per line or per token. *)
let rec same_bytes text start word i length =
  i = length
  || (String.unsafe_get text (start + i) = String.unsafe_get word i
      && same_bytes text start word (i + 1) length)

let spells text start stop word =
  stop - start = String.length word
  && same_bytes text start word 0 (String.length word)

let is t k word = spells t.text t.starts.(k) t.stops.(k) word

let token t k = String.sub t.text t.starts.(k) (t.stops.(k) - t.starts.(k))

let tokens t = List.init t.count (token t)

(* Tokenises the line starting at [first] and returns the offset of its
   '\n', or the text's length for a last line without one. *)
let tokenise t first =
  let text = t.text in
  let length = String.length text in
  t.count <- 0;
  let i = ref first in
  while !i < length && text.[!i] <> '\n' do
    if text.[!i] = ' ' then incr i
    else begin
      let start = !i in
      while !i < length && text.[!i] <> ' ' && text.[!i] <> '\n' do incr i done;
      if t.count = Array.length t.starts then begin
        let grow a = Array.append a (Array.make (Array.length a) 0) in
        t.starts <- grow t.starts;
        t.stops <- grow t.stops
      end;
      t.starts.(t.count) <- start;
      t.stops.(t.count) <- !i;
      t.count <- t.count + 1
    end
  done;
  !i

let rec walk_from t f first =
  t.line <- t.line + 1;
  let newline = tokenise t first in
  if t.count > 0 && String.unsafe_get t.text t.starts.(0) <> '#' then f t;
  if newline < String.length t.text then walk_from t f (newline + 1)
  else t.line

let walk text f =
  walk_from
    { text; starts = Array.make 16 0; stops = Array.make 16 0; count = 0;
      line = 0 }
    f 0

let float_field line name value =
  match float_of_string_opt value with
  | Some f -> f
  | None -> error line "%s: expected a number, got %S" name value

let int_field line name value =
  match int_of_string_opt value with
  | Some i -> i
  | None -> error line "%s: expected an integer, got %S" name value
