type qor = {
  iterations : int;
  met_timing : bool;
  final_worst_slack : float;
  final_tns : float;
  deltas : float list;
}

type expectation = {
  design : string;
  instances : int;
  nets : int;
  status : string;
  worst_slack : float;
  tns : float;
  slow_endpoints : int;
  hold_violations : int;
  path_slacks : float list;
  qor : qor option;
}

let schema_version = 1

let is_scale name =
  String.length name >= 5 && String.sub name 0 5 = "scale"

let default_designs =
  List.filter
    (fun name -> name = "scale10k" || not (is_scale name))
    Catalog.names

let status_string = function
  | Hb_sta.Algorithm1.Meets_timing -> "meets_timing"
  | Hb_sta.Algorithm1.Slow_paths -> "slow_paths"

(* The measurement shared by both entry points: everything an
   expectation records that can be read off a finished report. *)
let of_report ~name ~path_limit ~qor (report : Hb_sta.Engine.report) =
  let design = report.Hb_sta.Engine.context.Hb_sta.Context.design in
  let outcome = report.Hb_sta.Engine.outcome in
  let slacks = outcome.Hb_sta.Algorithm1.final in
  let tns, slow_endpoints = Hb_resynth.Loop.qor slacks in
  let paths =
    Hb_sta.Paths.worst_paths report.Hb_sta.Engine.context slacks
      ~limit:path_limit
  in
  { design = name;
    instances = Hb_netlist.Design.instance_count design;
    nets = Hb_netlist.Design.net_count design;
    status = status_string outcome.Hb_sta.Algorithm1.status;
    worst_slack = slacks.Hb_sta.Slacks.worst;
    tns;
    slow_endpoints;
    hold_violations = List.length report.Hb_sta.Engine.hold_violations;
    path_slacks =
      List.map (fun (p : Hb_sta.Paths.path) -> p.Hb_sta.Paths.slack) paths;
    qor;
  }

let measure ?(path_limit = 10) ?(qor_iterations = 5) name =
  match Catalog.find name with
  | None -> invalid_arg (Printf.sprintf "Golden.measure: unknown design %s" name)
  | Some generate ->
    let design, system = generate () in
    let report =
      Hb_sta.Engine.analyse ~design ~system ~generate_constraints:false
        ~check_hold:true ()
    in
    let qor =
      if is_scale name then None
      else begin
        let result =
          Hb_resynth.Loop.optimise ~design ~system
            ~library:(Hb_cell.Library.default ())
            ~max_iterations:qor_iterations ()
        in
        Some
          { iterations = result.Hb_resynth.Loop.iterations;
            met_timing = result.Hb_resynth.Loop.met_timing;
            final_worst_slack = result.Hb_resynth.Loop.final_worst_slack;
            final_tns = result.Hb_resynth.Loop.final_total_negative_slack;
            deltas =
              List.map
                (fun (step : Hb_resynth.Loop.step) ->
                   step.Hb_resynth.Loop.delta_worst_slack)
                result.Hb_resynth.Loop.history;
          }
      end
    in
    of_report ~name ~path_limit ~qor report

(* Corpus measurement against a live session — the warm-start check: a
   session restored from a snapshot must reproduce the corpus entry of
   the design it was saved from, bit for bit. No QoR journal: the
   resynthesis loop builds its own sessions, which would measure the
   optimiser, not the restored state. Compare against the stored
   expectation with its [qor] stripped. *)
let measure_restored ?(path_limit = 10) ~name session =
  let report =
    Hb_sta.Session.analyse ~generate_constraints:false ~check_hold:true session
  in
  of_report ~name ~path_limit ~qor:None report

(* ------------------------------------------------------------------ *)
(* Bit-exact float JSON round trip                                    *)
(* ------------------------------------------------------------------ *)

let float_repr f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else Printf.sprintf "%h" f

let float_of_repr s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> failwith (Printf.sprintf "golden: bad float literal %S" s)

let json_of_float f =
  let fields = [ ("hex", Hb_util.Json.String (float_repr f)) ] in
  let fields =
    if Float.is_nan f || not (Float.is_finite f) then fields
    else fields @ [ ("approx", Hb_util.Json.Number f) ]
  in
  Hb_util.Json.Obj fields

let float_of_json = function
  | Hb_util.Json.Obj _ as obj ->
    (match Hb_util.Json.member "hex" obj with
     | Some (Hb_util.Json.String s) -> float_of_repr s
     | _ -> failwith "golden: float object misses \"hex\"")
  | Hb_util.Json.Number f -> f
  | _ -> failwith "golden: expected a float object"

(* ------------------------------------------------------------------ *)
(* Document encoding                                                  *)
(* ------------------------------------------------------------------ *)

let qor_to_json q =
  Hb_util.Json.Obj
    [ ("iterations", Hb_util.Json.Number (float_of_int q.iterations));
      ("met_timing", Hb_util.Json.Bool q.met_timing);
      ("final_worst_slack", json_of_float q.final_worst_slack);
      ("final_tns", json_of_float q.final_tns);
      ("deltas", Hb_util.Json.List (List.map json_of_float q.deltas));
    ]

let to_json e =
  Hb_util.Json.Obj
    ([ ("schema_version", Hb_util.Json.Number (float_of_int schema_version));
       ("design", Hb_util.Json.String e.design);
       ("instances", Hb_util.Json.Number (float_of_int e.instances));
       ("nets", Hb_util.Json.Number (float_of_int e.nets));
       ("status", Hb_util.Json.String e.status);
       ("worst_slack", json_of_float e.worst_slack);
       ("tns", json_of_float e.tns);
       ("slow_endpoints", Hb_util.Json.Number (float_of_int e.slow_endpoints));
       ("hold_violations",
        Hb_util.Json.Number (float_of_int e.hold_violations));
       ("path_slacks", Hb_util.Json.List (List.map json_of_float e.path_slacks));
     ]
     @
     match e.qor with
     | None -> []
     | Some q -> [ ("qor", qor_to_json q) ])

let get name obj =
  match Hb_util.Json.member name obj with
  | Some v -> v
  | None -> failwith (Printf.sprintf "golden: missing field %S" name)

let get_int name obj =
  match Hb_util.Json.to_int (get name obj) with
  | Some i -> i
  | None -> failwith (Printf.sprintf "golden: field %S is not an integer" name)

let get_string name obj =
  match Hb_util.Json.to_text (get name obj) with
  | Some s -> s
  | None -> failwith (Printf.sprintf "golden: field %S is not a string" name)

let get_floats name obj =
  match get name obj with
  | Hb_util.Json.List items -> List.map float_of_json items
  | _ -> failwith (Printf.sprintf "golden: field %S is not a list" name)

let qor_of_json obj =
  { iterations = get_int "iterations" obj;
    met_timing =
      (match Hb_util.Json.to_bool (get "met_timing" obj) with
       | Some b -> b
       | None -> failwith "golden: \"met_timing\" is not a bool");
    final_worst_slack = float_of_json (get "final_worst_slack" obj);
    final_tns = float_of_json (get "final_tns" obj);
    deltas = get_floats "deltas" obj;
  }

let of_json obj =
  let version = get_int "schema_version" obj in
  if version <> schema_version then
    failwith
      (Printf.sprintf "golden: schema version %d, expected %d" version
         schema_version);
  { design = get_string "design" obj;
    instances = get_int "instances" obj;
    nets = get_int "nets" obj;
    status = get_string "status" obj;
    worst_slack = float_of_json (get "worst_slack" obj);
    tns = float_of_json (get "tns" obj);
    slow_endpoints = get_int "slow_endpoints" obj;
    hold_violations = get_int "hold_violations" obj;
    path_slacks = get_floats "path_slacks" obj;
    qor = Option.map qor_of_json (Hb_util.Json.member "qor" obj);
  }

(* ------------------------------------------------------------------ *)
(* Comparison                                                         *)
(* ------------------------------------------------------------------ *)

let feq a b = Float.compare a b = 0

let diff_float label expected actual acc =
  if feq expected actual then acc
  else
    Printf.sprintf "%s: expected %s (%.9g), got %s (%.9g)" label
      (float_repr expected) expected (float_repr actual) actual
    :: acc

let diff_int label expected actual acc =
  if expected = actual then acc
  else Printf.sprintf "%s: expected %d, got %d" label expected actual :: acc

let diff_string label expected actual acc =
  if String.equal expected actual then acc
  else Printf.sprintf "%s: expected %s, got %s" label expected actual :: acc

let diff_floats label expected actual acc =
  if List.length expected <> List.length actual then
    Printf.sprintf "%s: expected %d entries, got %d" label
      (List.length expected) (List.length actual)
    :: acc
  else
    List.fold_left2
      (fun acc (i, e) a -> diff_float (Printf.sprintf "%s[%d]" label i) e a acc)
      acc
      (List.mapi (fun i e -> (i, e)) expected)
      actual

let diff ~expected ~actual =
  let acc = [] in
  let acc = diff_string "design" expected.design actual.design acc in
  let acc = diff_int "instances" expected.instances actual.instances acc in
  let acc = diff_int "nets" expected.nets actual.nets acc in
  let acc = diff_string "status" expected.status actual.status acc in
  let acc = diff_float "worst_slack" expected.worst_slack actual.worst_slack acc in
  let acc = diff_float "tns" expected.tns actual.tns acc in
  let acc =
    diff_int "slow_endpoints" expected.slow_endpoints actual.slow_endpoints acc
  in
  let acc =
    diff_int "hold_violations" expected.hold_violations actual.hold_violations
      acc
  in
  let acc = diff_floats "path_slacks" expected.path_slacks actual.path_slacks acc in
  let acc =
    match expected.qor, actual.qor with
    | None, None -> acc
    | Some _, None -> "qor: expected a journal, got none" :: acc
    | None, Some _ -> "qor: expected no journal, got one" :: acc
    | Some e, Some a ->
      let acc = diff_int "qor.iterations" e.iterations a.iterations acc in
      let acc =
        if e.met_timing = a.met_timing then acc
        else
          Printf.sprintf "qor.met_timing: expected %b, got %b" e.met_timing
            a.met_timing
          :: acc
      in
      let acc =
        diff_float "qor.final_worst_slack" e.final_worst_slack
          a.final_worst_slack acc
      in
      let acc = diff_float "qor.final_tns" e.final_tns a.final_tns acc in
      diff_floats "qor.deltas" e.deltas a.deltas acc
  in
  List.rev acc

(* ------------------------------------------------------------------ *)
(* Storage                                                            *)
(* ------------------------------------------------------------------ *)

let path ~dir name = Filename.concat dir (name ^ ".json")

(* Indent one level deep so expectation files diff line-by-line in
   review; the values themselves come from the compact printer. *)
let pretty = function
  | Hb_util.Json.Obj fields ->
    let lines =
      List.map
        (fun (key, value) ->
           Printf.sprintf "  %s: %s"
             (Hb_util.Json.to_string (Hb_util.Json.String key))
             (Hb_util.Json.to_string value))
        fields
    in
    "{\n" ^ String.concat ",\n" lines ^ "\n}\n"
  | other -> Hb_util.Json.to_string other ^ "\n"

let save ~dir e =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Hb_util.Text.write_atomic (path ~dir e.design) (pretty (to_json e))

let load ~dir name =
  let file = path ~dir name in
  if not (Sys.file_exists file) then None
  else Some (of_json (Hb_util.Json.parse (Hb_util.Text.read_file file)))
