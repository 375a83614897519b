type entry =
  | Fixed of { rise : Hb_util.Time.t; fall : Hb_util.Time.t }
  | Scaled of float

type t = (string * entry) list

let entries t = t
let of_entries pairs = pairs

module Text = Hb_util.Text

let non_negative lineno name value =
  let f = Text.float_field lineno name value in
  if not (f >= 0.0) then Text.error lineno "%s: must be non-negative" name;
  f

let parse text =
  let entries = ref [] in
  let parse_line (r : Text.t) =
    let lineno = r.line in
    match Text.tokens r with
    | [ "delay"; inst; "rise"; rise; "fall"; fall ] ->
      entries :=
        ( inst,
          Fixed
            { rise = non_negative lineno "rise" rise;
              fall = non_negative lineno "fall" fall } )
        :: !entries
    | [ "scale"; inst; factor ] ->
      let f = non_negative lineno "scale" factor in
      if f <= 0.0 then Text.error lineno "scale: factor must be positive";
      entries := (inst, Scaled f) :: !entries
    | _ -> Text.error lineno "unknown directive %S" (Text.token r 0)
  in
  ignore (Text.walk text parse_line);
  List.rev !entries

let parse_file path = parse (Text.read_file path)

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
