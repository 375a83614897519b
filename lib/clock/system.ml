type t = {
  overall_period : Hb_util.Time.t;
  waveforms : Waveform.t list;
}

let make ~overall_period waveforms =
  if overall_period <= 0.0 then
    invalid_arg "System.make: overall period must be positive";
  let names = List.map (fun w -> w.Waveform.name) waveforms in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "System.make: duplicate clock names";
  List.iter (fun w -> Waveform.check w ~overall_period) waveforms;
  { overall_period; waveforms }

let find t name =
  List.find_opt (fun w -> String.equal w.Waveform.name name) t.waveforms

let find_exn t name =
  match find t name with
  | Some w -> w
  | None -> raise Not_found

let edge_time t edge =
  let w = find_exn t edge.Edge.clock in
  match edge.Edge.polarity with
  | Edge.Leading ->
    Waveform.leading_edge w ~overall_period:t.overall_period ~pulse:edge.Edge.pulse
  | Edge.Trailing ->
    Waveform.trailing_edge w ~overall_period:t.overall_period ~pulse:edge.Edge.pulse

let edges t =
  let all =
    List.concat_map
      (fun w ->
         List.concat
           (List.init w.Waveform.multiplier (fun pulse ->
                [ Edge.leading ~clock:w.Waveform.name ~pulse;
                  Edge.trailing ~clock:w.Waveform.name ~pulse ])))
      t.waveforms
  in
  let with_times = List.map (fun e -> (e, edge_time t e)) all in
  let compare_edges (e1, t1) (e2, t2) =
    let c = compare t1 t2 in
    if c <> 0 then c else Edge.compare e1 e2
  in
  Array.of_list (List.sort compare_edges with_times)

let with_overall_period t period = make ~overall_period:period t.waveforms

(* ------------------------------------------------------------------ *)
(* .hbc parsing                                                       *)
(* ------------------------------------------------------------------ *)

module Text = Hb_util.Text

exception Parse_error = Text.Parse_error

let parse text =
  let period = ref None in
  let waveforms = ref [] in
  let parse_line (r : Text.t) =
    let lineno = r.line in
    match Text.tokens r with
    | [ "period"; value ] ->
      (match !period with
       | Some _ -> Text.error lineno "duplicate 'period'"
       | None -> period := Some (Text.float_field lineno "period" value))
    | [ "clock"; name; "multiplier"; m; "rise"; rise; "width"; width ] ->
      let waveform =
        try
          Waveform.make ~name
            ~multiplier:(Text.int_field lineno "multiplier" m)
            ~rise:(Text.float_field lineno "rise" rise)
            ~width:(Text.float_field lineno "width" width)
        with Invalid_argument msg -> Text.error lineno "%s" msg
      in
      waveforms := waveform :: !waveforms
    | _ ->
      Text.error lineno
        "unknown directive %S (expected 'period <T>' or 'clock <name> multiplier <m> rise <r> width <w>')"
        (Text.token r 0)
  in
  ignore (Text.walk text parse_line);
  match !period with
  | None -> Text.error 0 "missing 'period' directive"
  | Some overall_period ->
    (try make ~overall_period (List.rev !waveforms)
     with Invalid_argument msg -> Text.error 0 "%s" msg)

let parse_file path = parse (Text.read_file path)

let to_string t =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (Printf.sprintf "period %g\n" t.overall_period);
  List.iter
    (fun w ->
       Buffer.add_string buffer
         (Printf.sprintf "clock %s multiplier %d rise %g width %g\n"
            w.Waveform.name w.Waveform.multiplier w.Waveform.rise w.Waveform.width))
    t.waveforms;
  Buffer.contents buffer

let pp ppf t =
  Format.fprintf ppf "@[<v>period %a@," Hb_util.Time.pp t.overall_period;
  List.iter (fun w -> Format.fprintf ppf "%a@," Waveform.pp w) t.waveforms;
  Format.fprintf ppf "@]"
