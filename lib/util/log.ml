(* The disabled path reads one atomic int; everything else — rendering,
   the ring, the site counts, the sink — happens under [mutex], which is
   fine for control-path events (requests, analyses, iterations). *)

type level = Off | Error | Warn | Info | Debug

let level_to_int = function
  | Off -> 0
  | Error -> 1
  | Warn -> 2
  | Info -> 3
  | Debug -> 4

let level_name = function
  | Off -> "off"
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii s with
  | "off" -> Some Off
  | "error" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

let threshold = Atomic.make 0
let set_level l = Atomic.set threshold (level_to_int l)

let level () =
  match Atomic.get threshold with
  | 0 -> Off
  | 1 -> Error
  | 2 -> Warn
  | 3 -> Info
  | _ -> Debug

let on l =
  let l = level_to_int l in
  l > 0 && l <= Atomic.get threshold

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type event = {
  ts : float;
  event_level : level;
  site : string;
  fields : (string * value) list;
  domain : int;
}

(* --- rendering ------------------------------------------------------- *)

let add_json_value buf = function
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%g" f)
      else Buffer.add_string buf "null"
  | String s -> Json.add_quoted buf s

let render_json e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "{\"ts\":%.6f,\"level\":" e.ts);
  Json.add_quoted buf (level_name e.event_level);
  Buffer.add_string buf ",\"site\":";
  Json.add_quoted buf e.site;
  Buffer.add_string buf (Printf.sprintf ",\"domain\":%d" e.domain);
  List.iter
    (fun (key, v) ->
      Buffer.add_char buf ',';
      Json.add_quoted buf key;
      Buffer.add_char buf ':';
      add_json_value buf v)
    e.fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let render_human e =
  let tm = Unix.gmtime e.ts in
  let frac = e.ts -. Float.of_int (int_of_float e.ts) in
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ %-5s %s"
       (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
       tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
       (int_of_float (frac *. 1000.0))
       (String.uppercase_ascii (level_name e.event_level))
       e.site);
  List.iter
    (fun (key, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf key;
      Buffer.add_char buf '=';
      match v with
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int i -> Buffer.add_string buf (string_of_int i)
      | Float f -> Buffer.add_string buf (Printf.sprintf "%g" f)
      | String s ->
          if
            String.exists
              (fun c -> c = ' ' || c = '"' || c = '\n' || c = '\t')
              s
          then Json.add_quoted buf s
          else Buffer.add_string buf s)
    e.fields;
  Buffer.contents buf

(* --- sink, ring, site counts ----------------------------------------- *)

type format = Human | Json

let mutex = Mutex.create ()

let default_sink e =
  output_string stderr (render_human e);
  output_char stderr '\n';
  flush stderr

let sink = ref default_sink

let set_sink f =
  Mutex.lock mutex;
  sink := f;
  Mutex.unlock mutex

let channel_sink format oc e =
  output_string oc (match format with Human -> render_human e | Json -> render_json e);
  output_char oc '\n';
  flush oc

let set_sink_channel ?(format = Json) oc = set_sink (channel_sink format oc)
let set_sink_default () = set_sink default_sink

let ring_capacity = 256
let ring : event option array = Array.make ring_capacity None
let ring_next = ref 0
let site_counts : (string, int ref) Hashtbl.t = Hashtbl.create 32

let emit event_level site fields =
  if on event_level then begin
    let e =
      { ts = Unix.gettimeofday ();
        event_level;
        site;
        fields;
        domain = (Domain.self () :> int);
      }
    in
    Mutex.lock mutex;
    ring.(!ring_next mod ring_capacity) <- Some e;
    incr ring_next;
    (match Hashtbl.find_opt site_counts site with
     | Some r -> incr r
     | None -> Hashtbl.add site_counts site (ref 1));
    (* The sink must never take the analysis down with it. *)
    (try !sink e with _ -> ());
    Mutex.unlock mutex
  end

let error site fields = emit Error site fields
let warn site fields = emit Warn site fields
let info site fields = emit Info site fields
let debug site fields = emit Debug site fields

let recent () =
  Mutex.lock mutex;
  let events = ref [] in
  let count = Stdlib.min !ring_next ring_capacity in
  for i = 1 to count do
    (* newest is at ring_next - 1; walk backwards, prepending. *)
    match ring.((!ring_next - i + ring_capacity * 2) mod ring_capacity) with
    | Some e -> events := e :: !events
    | None -> ()
  done;
  Mutex.unlock mutex;
  !events

let emitted site =
  Mutex.lock mutex;
  let n = match Hashtbl.find_opt site_counts site with
    | Some r -> !r
    | None -> 0
  in
  Mutex.unlock mutex;
  n

let emitted_sites () =
  Mutex.lock mutex;
  let sites = Hashtbl.fold (fun site r acc -> (site, !r) :: acc) site_counts [] in
  Mutex.unlock mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) sites

let reset () =
  Mutex.lock mutex;
  Array.fill ring 0 ring_capacity None;
  ring_next := 0;
  Hashtbl.reset site_counts;
  Mutex.unlock mutex
