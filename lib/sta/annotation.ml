type entry =
  | Fixed of { rise : Hb_util.Time.t; fall : Hb_util.Time.t }
  | Scaled of float

type t = (string * entry) list

let entries t = t
let of_entries pairs = pairs

let fail_line lineno fmt =
  Format.kasprintf
    (fun m -> failwith (Printf.sprintf "delay annotation line %d: %s" lineno m))
    fmt

let float_field lineno name value =
  match float_of_string_opt value with
  | Some f when f >= 0.0 -> f
  | Some _ -> fail_line lineno "%s: must be non-negative" name
  | None -> fail_line lineno "%s: expected a number, got %S" name value

let parse text =
  let entries = ref [] in
  let parse_line lineno line =
    let tokens =
      String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
    in
    match tokens with
    | [] -> ()
    | comment :: _ when String.length comment > 0 && comment.[0] = '#' -> ()
    | [ "delay"; inst; "rise"; rise; "fall"; fall ] ->
      entries :=
        ( inst,
          Fixed
            { rise = float_field lineno "rise" rise;
              fall = float_field lineno "fall" fall } )
        :: !entries
    | [ "scale"; inst; factor ] ->
      let f = float_field lineno "scale" factor in
      if f <= 0.0 then fail_line lineno "scale: factor must be positive";
      entries := (inst, Scaled f) :: !entries
    | directive :: _ -> fail_line lineno "unknown directive %S" directive
  in
  List.iteri (fun i line -> parse_line (i + 1) line) (String.split_on_char '\n' text);
  List.rev !entries

let parse_file path =
  let ic = open_in path in
  let length = in_channel_length ic in
  let text =
    try really_input_string ic length
    with e -> close_in ic; raise e
  in
  close_in ic;
  parse text

let empty = []
let count t = List.length t

let overlay ~suffix overrides ~base =
  { Delays.name = base.Delays.name ^ suffix;
    evaluate =
      (fun ~design ~inst ~arc ~out_net ->
         let inst_name =
           (Hb_netlist.Design.instance design inst).Hb_netlist.Design.inst_name
         in
         match Hashtbl.find_opt overrides inst_name with
         | Some (Fixed { rise; fall }) -> (rise, fall)
         | Some (Scaled f) ->
           let rise, fall =
             base.Delays.evaluate ~design ~inst ~arc ~out_net
           in
           (rise *. f, fall *. f)
         | None -> base.Delays.evaluate ~design ~inst ~arc ~out_net);
  }

(* Entries go into the table last to first, so the first entry for an
   instance wins, as a list lookup would find it. *)
let apply t ~base =
  let overrides = Hashtbl.create (2 * List.length t + 1) in
  List.iter (fun (name, entry) -> Hashtbl.replace overrides name entry)
    (List.rev t);
  overlay ~suffix:"+annotations" overrides ~base

let unused t ~design =
  let names = Hashtbl.create (2 * Hb_netlist.Design.instance_count design + 1) in
  for i = 0 to Hb_netlist.Design.instance_count design - 1 do
    Hashtbl.replace names
      (Hb_netlist.Design.instance design i).Hb_netlist.Design.inst_name ()
  done;
  List.filter_map
    (fun (inst_name, _) ->
       if Hashtbl.mem names inst_name then None else Some inst_name)
    t
  |> List.sort_uniq String.compare
