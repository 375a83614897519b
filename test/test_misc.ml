(* Robustness and edge-case tests across the public surface: pretty
   printers, report corner cases, engine options, JSON well-formedness
   (checked with a minimal parser), and generator validation. *)

let lib = Hb_cell.Library.default ()

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader (objects, arrays, strings, numbers, null,     *)
(* booleans) used to prove Json_export emits well-formed documents.    *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of json list
  | Object of (string * json) list

exception Bad_json of int

let parse_json text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let fail () = raise (Bad_json !pos) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\n' | '\t' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail ()
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | Some '"' -> advance (); Buffer.contents buffer
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some ('"' | '\\' | '/' | 'n' | 't' | 'r' | 'b' | 'f') as c ->
           advance ();
           Buffer.add_char buffer (Option.get c);
           loop ()
         | Some 'u' ->
           advance ();
           for _ = 1 to 4 do
             (match peek () with Some _ -> advance () | None -> fail ())
           done;
           Buffer.add_char buffer '?';
           loop ()
         | _ -> fail ())
      | Some c -> advance (); Buffer.add_char buffer c; loop ()
      | None -> fail ()
    in
    loop ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Object [])
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((key, value) :: acc)
          | Some '}' -> advance (); Object (List.rev ((key, value) :: acc))
          | _ -> fail ()
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); Array [])
      else begin
        let rec items acc =
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (value :: acc)
          | Some ']' -> advance (); Array (List.rev (value :: acc))
          | _ -> fail ()
        in
        items []
      end
    | Some '"' -> String (parse_string ())
    | Some 'n' -> pos := !pos + 4; Null
    | Some 't' -> pos := !pos + 4; Bool true
    | Some 'f' -> pos := !pos + 5; Bool false
    | Some ('-' | '0' .. '9') ->
      let start = !pos in
      let rec number () =
        match peek () with
        | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> advance (); number ()
        | _ -> ()
      in
      number ();
      (match float_of_string_opt (String.sub text start (!pos - start)) with
       | Some f -> Number f
       | None -> fail ())
    | _ -> fail ()
  in
  let value = parse_value () in
  skip_ws ();
  if !pos <> n then fail ();
  value

let test_json_well_formed () =
  List.iter
    (fun (design, system) ->
       let report = Hb_sta.Engine.analyse ~design ~system () in
       let json = Hb_sta.Json_export.report report in
       match parse_json json with
       | Object members ->
         List.iter
           (fun key ->
              Alcotest.(check bool) ("has " ^ key) true
                (List.mem_assoc key members))
           [ "design"; "period"; "verdict"; "worst_slack"; "passes";
             "endpoints"; "slow_nets"; "hold_violations"; "timings" ]
       | _ -> Alcotest.fail "top level must be an object")
    [ Hb_workload.Figures.figure1 ();
      Hb_workload.Pipelines.edge_ff ~period:10.0 ~width:3 ~stages:2
        ~gates_per_stage:10 ();
      Hb_workload.Buses.shared_bus ~sources:2 ~width:3 ();
    ]

let test_json_endpoint_sorted () =
  let design, system =
    Hb_workload.Pipelines.edge_ff ~width:4 ~stages:3 ~gates_per_stage:15 ()
  in
  let report = Hb_sta.Engine.analyse ~design ~system () in
  match parse_json (Hb_sta.Json_export.report report) with
  | Object members ->
    (match List.assoc "endpoints" members with
     | Array entries ->
       let slacks =
         List.filter_map
           (function
             | Object fields ->
               (match List.assoc_opt "slack" fields with
                | Some (Number f) -> Some f
                | _ -> None)
             | _ -> None)
           entries
       in
       Alcotest.(check bool) "non-empty" true (slacks <> []);
       Alcotest.(check (list (float 1e-9))) "ascending"
         (List.sort compare slacks) slacks
     | _ -> Alcotest.fail "endpoints must be an array")
  | _ -> Alcotest.fail "object expected"

let test_json_metrics_block () =
  (* Tight clock: Algorithm 1 must actually transfer slack (a design
     meeting timing on the first sweep never calls complete_transfer). *)
  let design, system =
    Hb_workload.Pipelines.edge_ff ~period:3.0 ~width:4 ~stages:3
      ~gates_per_stage:20 ()
  in
  let config = { Hb_sta.Config.default with Hb_sta.Config.telemetry = true } in
  let report = Hb_sta.Engine.analyse ~design ~system ~config () in
  let json = Hb_sta.Json_export.report ~paths:4 report in
  Hb_util.Telemetry.set_enabled false;
  Hb_util.Telemetry.reset ();
  match parse_json json with
  | Object members ->
    (match List.assoc_opt "near_critical" members with
     | Some (Array (_ :: _)) -> ()
     | _ -> Alcotest.fail "near_critical must be a non-empty array");
    (match List.assoc_opt "metrics" members with
     | Some (Object metrics) ->
       (match List.assoc_opt "counters" metrics with
        | Some (Object counters) ->
          let value name =
            match List.assoc_opt name counters with
            | Some (Number v) -> int_of_float v
            | _ -> Alcotest.fail ("missing counter " ^ name)
          in
          Alcotest.(check bool) "block evaluations counted" true
            (value "slacks.block_evaluations" > 0);
          Alcotest.(check bool) "transfers counted" true
            (value "algorithm1.complete_forward_transfers" > 0);
          Alcotest.(check bool) "path states counted" true
            (value "paths.states_expanded" > 0)
        | _ -> Alcotest.fail "metrics.counters must be an object");
       (match List.assoc_opt "spans" metrics with
        | Some (Array (_ :: _)) -> ()
        | _ -> Alcotest.fail "metrics.spans must be non-empty")
     | _ -> Alcotest.fail "metrics block missing")
  | _ -> Alcotest.fail "object expected"

(* ------------------------------------------------------------------ *)
(* Report bytes against the printf writer                             *)
(* ------------------------------------------------------------------ *)

(* The report writer as it was before it appended into its buffer
   directly: every row through [Printf.ksprintf], strings through a
   per-call escaper, endpoints sorted as a list of (label, slack) pairs.
   Kept verbatim, with the escaper and [Report.slow_nets] of that
   version, as the reference the writer must match byte for byte. *)
module Printf_report = struct
  open Hb_sta

  module Json = struct
    let escape s =
      let buffer = Buffer.create (String.length s + 2) in
      String.iter
        (fun c ->
           match c with
           | '"' -> Buffer.add_string buffer "\\\""
           | '\\' -> Buffer.add_string buffer "\\\\"
           | '\n' -> Buffer.add_string buffer "\\n"
           | '\t' -> Buffer.add_string buffer "\\t"
           | '\r' -> Buffer.add_string buffer "\\r"
           | c when Char.code c < 0x20 ->
             Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
           | c -> Buffer.add_char buffer c)
        s;
      Buffer.contents buffer
  end

  module Report = struct
    let slow_nets (ctx : Context.t) (slacks : Slacks.t) =
      let names = ref [] in
      Array.iteri
        (fun net slack ->
           if Hb_util.Time.is_finite slack && Hb_util.Time.le slack 0.0 then
             names :=
               (Hb_netlist.Design.net ctx.Context.design net).Hb_netlist.Design.net_name
               :: !names)
        slacks.Slacks.net_slack;
      List.rev !names
  end

  let schema_version = 1

  let number f =
    if Float.is_finite f then
      (* %.17g round-trips doubles but is noisy; %.6f is ample for ns. *)
      Printf.sprintf "%.6f" f
    else "null"

  let report ?(paths = 0) (r : Engine.report) =
    let ctx = r.Engine.context in
    let outcome = r.Engine.outcome in
    let slacks = outcome.Algorithm1.final in
    let buffer = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
    add "{\n";
    add "  \"schema_version\": %d,\n" schema_version;
    add "  \"design\": \"%s\",\n"
      (Json.escape ctx.Context.design.Hb_netlist.Design.design_name);
    add "  \"period\": %s,\n"
      (number ctx.Context.system.Hb_clock.System.overall_period);
    add "  \"verdict\": \"%s\",\n"
      (match outcome.Algorithm1.status with
       | Algorithm1.Meets_timing -> "meets_timing"
       | Algorithm1.Slow_paths -> "slow_paths");
    add "  \"worst_slack\": %s,\n" (number slacks.Slacks.worst);
    let settling =
      Passes.settling_times ctx.Context.passes ~table:ctx.Context.table
    in
    add "  \"passes\": {\"minimum\": %d, \"per_edge\": %d},\n"
      settling.Passes.minimized_passes settling.Passes.naive_settling_times;
    (* Endpoints ascending by slack. *)
    let endpoints = ref [] in
    Array.iteri
      (fun e slack ->
         if Hb_util.Time.is_finite slack then
           endpoints :=
             ( (Elements.element ctx.Context.elements e).Hb_sync.Element.label,
               slack )
             :: !endpoints)
      slacks.Slacks.element_input_slack;
    let endpoints = List.sort (fun (_, a) (_, b) -> compare a b) !endpoints in
    add "  \"endpoints\": [";
    List.iteri
      (fun i (label, slack) ->
         add "%s\n    {\"element\": \"%s\", \"slack\": %s}"
           (if i = 0 then "" else ",")
           (Json.escape label) (number slack))
      endpoints;
    add "\n  ],\n";
    add "  \"slow_nets\": [";
    List.iteri
      (fun i net ->
         add "%s\"%s\"" (if i = 0 then "" else ", ") (Json.escape net))
      (Report.slow_nets ctx slacks);
    add "],\n";
    add "  \"hold_violations\": [";
    List.iteri
      (fun i (v : Holdcheck.violation) ->
         add "%s\n    {\"element\": \"%s\", \"margin\": %s}"
           (if i = 0 then "" else ",")
           (Json.escape v.Holdcheck.label)
           (number v.Holdcheck.margin))
      r.Engine.hold_violations;
    add "\n  ],\n";
    if paths > 0 then begin
      let design = ctx.Context.design in
      let element_label e =
        (Elements.element ctx.Context.elements e).Hb_sync.Element.label
      in
      add "  \"paths\": [";
      List.iteri
        (fun i (p : Paths.path) ->
           add "%s\n    {\"start\": \"%s\", \"end\": \"%s\", \"slack\": %s, \
                \"cluster\": %d, \"cut\": %d, \"hops\": ["
             (if i = 0 then "" else ",")
             (Json.escape (element_label p.Paths.start_element))
             (Json.escape (element_label p.Paths.end_element))
             (number p.Paths.slack) p.Paths.cluster p.Paths.cut;
           List.iteri
             (fun j (hop : Paths.hop) ->
                let net_name =
                  (Hb_netlist.Design.net design hop.Paths.net)
                    .Hb_netlist.Design.net_name
                in
                let via =
                  match hop.Paths.via with
                  | None -> "null"
                  | Some inst ->
                    Printf.sprintf "\"%s\""
                      (Json.escape
                         (Hb_netlist.Design.instance design inst)
                           .Hb_netlist.Design.inst_name)
                in
                add "%s{\"net\": \"%s\", \"via\": %s, \"at\": %s}"
                  (if j = 0 then "" else ", ")
                  (Json.escape net_name) via (number hop.Paths.at))
             p.Paths.hops;
           add "]}")
        (Paths.worst_paths ctx slacks ~limit:paths);
      add "\n  ],\n";
      (* Near-critical density per worst endpoint: how many distinct paths
         compete within the top [paths], and how far the k-th sits behind
         the worst. Uses the bounded enumeration, so with telemetry on the
         paths.* counters below reflect this very block. *)
      let endpoints = Paths.worst_endpoints slacks ~limit:paths in
      let enumerations =
        Paths.enumerate_many ctx
          ~endpoints:(List.map fst endpoints) ~limit:paths
      in
      add "  \"near_critical\": [";
      List.iteri
        (fun i ((endpoint, _), enumerated) ->
           let worst, kth =
             match enumerated with
             | [] -> (None, None)
             | (first : Paths.path) :: _ ->
               let rec last = function
                 | [ (p : Paths.path) ] -> p
                 | _ :: rest -> last rest
                 | [] -> first
               in
               (Some first.Paths.slack, Some (last enumerated).Paths.slack)
           in
           let opt = function Some v -> number v | None -> "null" in
           add "%s\n    {\"endpoint\": \"%s\", \"count\": %d, \
                \"worst_slack\": %s, \"kth_slack\": %s}"
             (if i = 0 then "" else ",")
             (Json.escape (element_label endpoint))
             (List.length enumerated) (opt worst) (opt kth))
        (List.combine endpoints enumerations);
      add "\n  ],\n"
    end;
    if ctx.Context.config.Config.telemetry then begin
      let snapshot = Hb_util.Telemetry.snapshot () in
      add "  \"metrics\": {\n";
      add "    \"counters\": {";
      List.iteri
        (fun i (name, v) ->
           add "%s\n      \"%s\": %d" (if i = 0 then "" else ",")
             (Json.escape name) v)
        snapshot.Hb_util.Telemetry.counters;
      add "\n    },\n";
      add "    \"gauges\": {";
      List.iteri
        (fun i (name, v) ->
           add "%s\n      \"%s\": %s" (if i = 0 then "" else ",")
             (Json.escape name) (number v))
        snapshot.Hb_util.Telemetry.gauges;
      add "\n    },\n";
      add "    \"spans\": [";
      List.iteri
        (fun i (name, count, wall, cpu) ->
           add "%s\n      {\"name\": \"%s\", \"count\": %d, \"wall_s\": %s, \
                \"cpu_s\": %s}"
             (if i = 0 then "" else ",")
             (Json.escape name) count (number wall) (number cpu))
        (Hb_util.Telemetry.aggregate_spans snapshot);
      add "\n    ]\n";
      add "  },\n"
    end;
    add "  \"timings\": {\"preprocess_s\": %s, \"analysis_s\": %s, \"constraints_s\": %s, \
         \"preprocess_wall_s\": %s, \"analysis_wall_s\": %s, \"constraints_wall_s\": %s, \
         \"peak_rss_bytes\": %s}\n"
      (number r.Engine.timings.Engine.preprocess_seconds)
      (number r.Engine.timings.Engine.analysis_seconds)
      (number r.Engine.timings.Engine.constraints_seconds)
      (number r.Engine.timings.Engine.preprocess_wall_seconds)
      (number r.Engine.timings.Engine.analysis_wall_seconds)
      (number r.Engine.timings.Engine.constraints_wall_seconds)
      (match r.Engine.timings.Engine.peak_rss_bytes with
       | Some bytes -> string_of_int bytes
       | None -> "null");
    add "}\n";
    Buffer.contents buffer
end

let analysed ?(config = Hb_sta.Config.default) (design, system) =
  Hb_sta.Engine.analyse ~design ~system
    ~config:{ config with Hb_sta.Config.parallel_jobs = 1 } ()

let check_same_bytes what ~expected actual =
  if not (String.equal expected actual) then begin
    let n = Int.min (String.length expected) (String.length actual) in
    let rec first i =
      if i < n && expected.[i] = actual.[i] then first (i + 1) else i
    in
    let at = first 0 in
    let around s = String.sub s at (Int.min 60 (String.length s - at)) in
    Alcotest.failf "%s: first difference at byte %d: %S against %S" what at
      (around actual) (around expected)
  end

let check_report_bytes name report =
  List.iter
    (fun paths ->
       check_same_bytes
         (Printf.sprintf "%s, paths %d" name paths)
         ~expected:(Printf_report.report ~paths report)
         (Hb_sta.Json_export.report ~paths report))
    [ 0; 5 ]

let catalog name =
  match Hb_workload.Catalog.find name with
  | Some generate -> generate ()
  | None -> Alcotest.failf "no generator %s" name

(* Names with a quote, a backslash, a tab and byte 0x01, and two
   endpoints fed alike, so that they tie in slack. *)
let awkward_design () =
  let b = Hb_netlist.Builder.create ~name:"aw\"k\\w\tar\001d" ~library:lib in
  let port name direction is_clock =
    Hb_netlist.Builder.add_port b ~name ~direction ~is_clock
  in
  let add name cell connections =
    Hb_netlist.Builder.add_instance b ~name ~cell ~connections ()
  in
  port "clk" Hb_netlist.Design.Port_in true;
  port "d\"in" Hb_netlist.Design.Port_in false;
  port "o\t1" Hb_netlist.Design.Port_out false;
  port "o\\2" Hb_netlist.Design.Port_out false;
  add "ff\"a" "dff" [ ("d", "d\"in"); ("ck", "clk"); ("q", "n\\q") ];
  add "g\t1" "inv_x1" [ ("a", "n\\q"); ("y", "n\"1") ];
  add "g\0012" "inv_x1" [ ("a", "n\\q"); ("y", "n\t2") ];
  add "ff\001b" "dff" [ ("d", "n\"1"); ("ck", "clk"); ("q", "o\t1") ];
  add "ff\\c" "dff" [ ("d", "n\t2"); ("ck", "clk"); ("q", "o\\2") ];
  let system =
    Hb_clock.System.make ~overall_period:2.0
      [ Hb_clock.Waveform.make ~name:"clk" ~multiplier:1 ~rise:0.0 ~width:0.8 ]
  in
  (Hb_netlist.Builder.freeze b, system)

let test_report_bytes () =
  List.iter
    (fun name -> check_report_bytes name (analysed (catalog name)))
    [ "des"; "alu"; "sm1f"; "dsp"; "figure1"; "pipeline"; "ring"; "scale10k" ];
  (* Inputs arriving early make hold violations. *)
  List.iter
    (fun (name, early) ->
       let config =
         { Hb_sta.Config.default with
           Hb_sta.Config.default_input_arrival = -.early }
       in
       let report = analysed ~config (catalog name) in
       Alcotest.(check bool)
         (Printf.sprintf "%s %g ns early has hold violations" name early)
         true (report.Hb_sta.Engine.hold_violations <> []);
       check_report_bytes (Printf.sprintf "%s %g ns early" name early) report)
    [ ("sm1f", 30.0); ("sm1f", 45.0); ("scale10k", 30.0); ("scale10k", 45.0) ];
  let report = analysed (awkward_design ()) in
  let slack = report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final
      .Hb_sta.Slacks.element_input_slack
  in
  let finite = List.filter Float.is_finite (Array.to_list slack) in
  Alcotest.(check bool) "two endpoints tie" true
    (List.length (List.sort_uniq compare finite) < List.length finite);
  check_report_bytes "awkward names" report;
  (* With recording switched off after the analysis, both renders read
     one telemetry snapshot. *)
  let config = { Hb_sta.Config.default with Hb_sta.Config.telemetry = true } in
  let report = analysed ~config (catalog "pipeline") in
  Hb_util.Telemetry.set_enabled false;
  Fun.protect
    ~finally:Hb_util.Telemetry.reset
    (fun () -> check_report_bytes "pipeline with telemetry" report)

(* ------------------------------------------------------------------ *)
(* Serve's analyse reply against the parsed report                    *)
(* ------------------------------------------------------------------ *)

(* The analyse reply as serve built it before it wrote the report into
   the reply in the compact layout: the pretty report parsed back into a
   [Json.t] and printed inside the envelope. *)
let reparsed_reply ~id ~request_id ~paths report =
  let open Hb_util.Json in
  to_string
    (Obj
       [ ("schema_version",
          Number (float_of_int Hb_sta.Json_export.schema_version));
         ("id", Number (float_of_int id));
         ("request_id", String request_id);
         ("status", String "ok");
         ("result", parse (Hb_sta.Json_export.report ~paths report));
       ])

(* The peak RSS a served report carries: the one value of a report that
   is read afresh at each [Session.analyse]. *)
let served_peak reply =
  let open Hb_util.Json in
  let ( let* ) = Option.bind in
  let* result = member "result" (parse reply) in
  let* timings = member "timings" result in
  let* peak = member "peak_rss_bytes" timings in
  to_int peak

(* The daemon loads a snapshot of an analysed session, and the test
   restores the same snapshot: both then answer [analyse] from the same
   cached analysis, constraints, hold check and timings, so the served
   reply must equal the reparsed one byte for byte once the reference
   takes the served peak RSS. [freeze] runs after both are loaded and
   before the first reply. *)
let check_served_reply ?(config = Hb_sta.Config.default) ?(freeze = ignore)
    name (design, system) =
  let config = { config with Hb_sta.Config.parallel_jobs = 1 } in
  let path = Filename.temp_file "hb_reply" ".hbs" in
  let session = Hb_sta.Session.create ~design ~system ~config () in
  ignore (Hb_sta.Session.analyse session : Hb_sta.Session.report);
  Hb_sta.Session.save_snapshot session ~path;
  Hb_sta.Session.close session;
  let daemon = Hb_sta.Serve.create () in
  let restored = ref None in
  Fun.protect
    ~finally:(fun () ->
        Option.iter Hb_sta.Session.close !restored;
        Hb_sta.Serve.shutdown_sessions daemon;
        Sys.remove path)
    (fun () ->
       let load =
         Hb_util.Json.to_string
           (Hb_util.Json.Obj
              [ ("id", Hb_util.Json.Number 0.0);
                ("method", Hb_util.Json.String "load");
                ( "params",
                  Hb_util.Json.Obj [ ("snapshot", Hb_util.Json.String path) ]
                );
              ])
       in
       let loaded = Hb_sta.Serve.handle_line daemon load in
       Alcotest.(check bool) (name ^ " loads") true
         (contains ~needle:{|"status":"ok"|} loaded);
       let session = Hb_sta.Session.of_snapshot ~path in
       restored := Some session;
       freeze ();
       List.iter
         (fun paths ->
            let id = paths + 1 in
            let request_id = Printf.sprintf "reply-%d" paths in
            let served =
              Hb_sta.Serve.handle_line daemon
                (Printf.sprintf
                   {|{"id":%d,"request_id":"%s","method":"analyse","params":{"paths":%d}}|}
                   id request_id paths)
            in
            let report = Hb_sta.Session.analyse session in
            let report =
              { report with
                Hb_sta.Session.timings =
                  { report.Hb_sta.Session.timings with
                    Hb_sta.Session.peak_rss_bytes = served_peak served } }
            in
            check_same_bytes
              (Printf.sprintf "%s, paths %d" name paths)
              ~expected:(reparsed_reply ~id ~request_id ~paths report)
              served)
         [ 0; 5 ])

(* A design with no endpoint: its worst slack is infinite. *)
let endless_design () =
  let b = Hb_netlist.Builder.create ~name:"endless" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"clk"
    ~direction:Hb_netlist.Design.Port_in ~is_clock:true;
  Hb_netlist.Builder.add_port b ~name:"a"
    ~direction:Hb_netlist.Design.Port_in ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"g" ~cell:"inv_x1"
    ~connections:[ ("a", "a"); ("y", "n") ] ();
  let system =
    Hb_clock.System.make ~overall_period:2.0
      [ Hb_clock.Waveform.make ~name:"clk" ~multiplier:1 ~rise:0.0 ~width:0.8 ]
  in
  (Hb_netlist.Builder.freeze b, system)

let test_served_reply_bytes () =
  List.iter
    (fun name -> check_served_reply name (catalog name))
    [ "des"; "alu"; "sm1f"; "dsp"; "scale10k" ];
  List.iter
    (fun (name, early) ->
       let config =
         { Hb_sta.Config.default with
           Hb_sta.Config.default_input_arrival = -.early }
       in
       let design = catalog name in
       Alcotest.(check bool)
         (Printf.sprintf "%s %g ns early has hold violations" name early)
         true
         ((analysed ~config design).Hb_sta.Engine.hold_violations <> []);
       check_served_reply ~config
         (Printf.sprintf "%s %g ns early" name early) design)
    [ ("sm1f", 30.0); ("sm1f", 45.0); ("scale10k", 30.0); ("scale10k", 45.0) ];
  check_served_reply "awkward names" (awkward_design ());
  let design = endless_design () in
  Alcotest.(check bool) "worst slack is infinite" false
    (Float.is_finite
       (analysed design).Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final
         .Hb_sta.Slacks.worst);
  check_served_reply "no endpoint" design;
  (* Gauges carry the numbers whose shortest form differs most from
     %.6f: non-finite, negative zero, too small or too large for six
     decimals, past 2^53. Recording stops once both sessions are
     loaded, so the two renders read one telemetry snapshot. *)
  let config = { Hb_sta.Config.default with Hb_sta.Config.telemetry = true } in
  let freeze () =
    List.iteri
      (fun i v ->
         Hb_util.Telemetry.set_gauge
           (Hb_util.Telemetry.gauge (Printf.sprintf "reply.number_%02d" i))
           v)
      [ infinity; neg_infinity; -0.0; 1e-7; -1e-7; 5e-5; 0.1 +. 0.2;
        123456789.123456; 9007199254740993.0; 1e16; 1.5e300 ];
    Hb_util.Telemetry.set_enabled false
  in
  Fun.protect ~finally:Hb_util.Telemetry.reset (fun () ->
      check_served_reply ~config ~freeze "pipeline with telemetry"
        (catalog "pipeline"))

(* ------------------------------------------------------------------ *)
(* Pretty printers                                                    *)
(* ------------------------------------------------------------------ *)

let test_time_pp () =
  Alcotest.(check string) "finite" "12.500 ns" (Hb_util.Time.to_string 12.5);
  Alcotest.(check string) "+inf" "+inf" (Hb_util.Time.to_string infinity);
  Alcotest.(check string) "-inf" "-inf" (Hb_util.Time.to_string neg_infinity)

let test_interval_pp () =
  let i = Hb_util.Interval.make ~lo:1.0 ~hi:2.0 in
  Alcotest.(check bool) "brackets" true
    (contains ~needle:"[1.000 ns, 2.000 ns]" (Format.asprintf "%a" Hb_util.Interval.pp i))

let test_edge_pp () =
  Alcotest.(check string) "leading" "phi1[0]+"
    (Hb_clock.Edge.to_string (Hb_clock.Edge.leading ~clock:"phi1" ~pulse:0));
  Alcotest.(check string) "trailing" "clk[3]-"
    (Hb_clock.Edge.to_string (Hb_clock.Edge.trailing ~clock:"clk" ~pulse:3))

let test_stats_pp () =
  let design, _ = Hb_workload.Chips.sm1f () in
  let text =
    Format.asprintf "%a" Hb_netlist.Stats.pp (Hb_netlist.Stats.compute design)
  in
  Alcotest.(check bool) "mentions cells" true (contains ~needle:"cells: 292" text)

let test_table_right_alignment () =
  let out =
    Hb_util.Table.render ~header:[ "n" ]
      ~align:Hb_util.Table.[ Right ]
      [ [ "1" ]; [ "10" ]; [ "100" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check string) "padded" "  1" (List.nth lines 2);
  Alcotest.(check string) "wider" " 10" (List.nth lines 3)

let test_element_pp () =
  let e =
    Hb_sync.Element.input_boundary ~inst:(-1) ~id:0 ~label:"port x"
      ~edge:(Hb_clock.Edge.leading ~clock:"clk" ~pulse:0)
      ~arrival_offset:1.5
  in
  let text = Format.asprintf "%a" Hb_sync.Element.pp e in
  Alcotest.(check bool) "mentions label" true (contains ~needle:"port x" text)

(* ------------------------------------------------------------------ *)
(* Engine options                                                     *)
(* ------------------------------------------------------------------ *)

let small () =
  Hb_workload.Pipelines.edge_ff ~width:3 ~stages:2 ~gates_per_stage:10 ()

let test_engine_skip_constraints () =
  let design, system = small () in
  let report =
    Hb_sta.Engine.analyse ~design ~system ~generate_constraints:false ()
  in
  Alcotest.(check bool) "no constraint times" true
    (report.Hb_sta.Engine.constraints = None);
  Alcotest.(check (float 0.0)) "no time spent" 0.0
    report.Hb_sta.Engine.timings.Hb_sta.Engine.constraints_seconds

let test_engine_skip_hold () =
  let design, system = small () in
  let report = Hb_sta.Engine.analyse ~design ~system ~check_hold:false () in
  Alcotest.(check int) "no hold data" 0
    (List.length report.Hb_sta.Engine.hold_violations)

(* ------------------------------------------------------------------ *)
(* Reports: degenerate inputs                                         *)
(* ------------------------------------------------------------------ *)

let test_constraints_report_empty () =
  let design, system = small () in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let _ = Hb_sta.Algorithm1.run ctx in
  let times = Hb_sta.Algorithm2.run ctx in
  Alcotest.(check string) "empty message" "no modules on too-slow paths\n"
    (Hb_sta.Report.constraints_report ctx times ~limit:5)

let test_histogram_single_value () =
  let design, system = small () in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let slacks = Hb_sta.Slacks.compute ctx in
  (* Must not divide by zero even when all slacks coincide or there is
     one bucket. *)
  let text = Hb_sta.Report.slack_histogram slacks ~buckets:1 in
  Alcotest.(check bool) "renders" true (String.length text > 0)

(* ------------------------------------------------------------------ *)
(* Generator validation                                               *)
(* ------------------------------------------------------------------ *)

let test_soup_validation () =
  (match Hb_workload.Soup.random ~seed:1L ~phases:0 () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "phases=0 must be rejected");
  (match Hb_workload.Soup.random ~seed:1L ~registers:0 () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "registers=0 must be rejected")

let test_falsey_validation () =
  match Hb_workload.Falsey.conflict_chain ~head:0 ~tail:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "head=0 must be rejected"

let test_soup_deterministic () =
  let text seed =
    let design, _ = Hb_workload.Soup.random ~seed () in
    Hb_netlist.Hbn_format.write design
  in
  Alcotest.(check string) "same seed" (text 5L) (text 5L);
  Alcotest.(check bool) "different seeds differ" true (text 5L <> text 6L)

(* ------------------------------------------------------------------ *)
(* File errors                                                        *)
(* ------------------------------------------------------------------ *)

let test_missing_files_raise () =
  Alcotest.(check bool) "hbn" true
    (match Hb_netlist.Hbn_format.parse_file ~library:lib "/nonexistent.hbn" with
     | exception Sys_error _ -> true
     | _ -> false);
  Alcotest.(check bool) "hbc" true
    (match Hb_clock.System.parse_file "/nonexistent.hbc" with
     | exception Sys_error _ -> true
     | _ -> false);
  Alcotest.(check bool) "blif" true
    (match Hb_netlist.Blif.parse_file ~library:lib "/nonexistent.blif" with
     | exception Sys_error _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Elements state                                                     *)
(* ------------------------------------------------------------------ *)

let test_offsets_snapshot_round_trip () =
  let design, system =
    Hb_workload.Pipelines.two_phase ~width:3 ~stages:3 ~gates_per_stage:10 ()
  in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let elements = ctx.Hb_sta.Context.elements in
  let before = Hb_sta.Elements.save_offsets elements in
  (* Move every adjustable element and confirm the snapshot diverges. *)
  for e = 0 to Hb_sta.Elements.count elements - 1 do
    Hb_sync.Element.shift (Hb_sta.Elements.element elements e) (-1.0)
  done;
  let after = Hb_sta.Elements.save_offsets elements in
  Alcotest.(check bool) "shift moved something" true (before <> after);
  Hb_sta.Elements.restore_offsets elements before;
  Alcotest.(check bool) "restored exactly" true
    (Hb_sta.Elements.save_offsets elements = before);
  Hb_sta.Elements.reset_offsets elements;
  Alcotest.(check bool) "reset matches initial" true
    (Hb_sta.Elements.save_offsets elements = before)

let test_sample_data_files () =
  (* The shipped sample inputs parse and analyse. Skipped silently when
     the test runs outside the repository root sandbox. *)
  let root = "../../../examples/data" in
  if Sys.file_exists (Filename.concat root "figure1.hbn") then begin
    let design =
      Hb_netlist.Hbn_format.parse_file ~library:lib
        (Filename.concat root "figure1.hbn")
    in
    let system =
      Hb_clock.System.parse_file (Filename.concat root "figure1.hbc")
    in
    let config =
      Hb_sta.Config_format.parse_file (Filename.concat root "figure1.hbt")
    in
    let report = Hb_sta.Engine.analyse ~design ~system ~config () in
    Alcotest.(check bool) "figure1 sample analyses" true
      (Hb_util.Time.is_finite
         report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst);
    let blif =
      Hb_netlist.Blif.parse_file ~library:lib (Filename.concat root "gated.blif")
    in
    Alcotest.(check bool) "blif sample parses" true
      (Hb_netlist.Design.instance_count blif > 0)
  end

let test_endpoint_report () =
  let design, system =
    Hb_workload.Pipelines.edge_ff ~width:3 ~stages:2 ~gates_per_stage:8 ()
  in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let _ = Hb_sta.Algorithm1.run ctx in
  let slacks = Hb_sta.Slacks.compute ctx in
  match Hb_sta.Paths.worst_endpoints slacks ~limit:1 with
  | [ (endpoint, _) ] ->
    let text = Hb_sta.Report.endpoint_report ctx ~endpoint in
    Alcotest.(check bool) "has endpoint header" true
      (contains ~needle:"Endpoint:" text);
    Alcotest.(check bool) "has slack line" true (contains ~needle:"slack" text);
    Alcotest.(check bool) "has launch line" true (contains ~needle:"Launch:" text)
  | _ -> Alcotest.fail "expected one endpoint"

let () =
  Alcotest.run "misc"
    [ ("json",
       [ Alcotest.test_case "well formed" `Quick test_json_well_formed;
         Alcotest.test_case "endpoints sorted" `Quick test_json_endpoint_sorted;
         Alcotest.test_case "metrics block" `Quick test_json_metrics_block;
         Alcotest.test_case "bytes = printf writer" `Quick test_report_bytes;
         Alcotest.test_case "serve reply = parsed report" `Quick
           test_served_reply_bytes ]);
      ("printers",
       [ Alcotest.test_case "time" `Quick test_time_pp;
         Alcotest.test_case "interval" `Quick test_interval_pp;
         Alcotest.test_case "edge" `Quick test_edge_pp;
         Alcotest.test_case "stats" `Quick test_stats_pp;
         Alcotest.test_case "table right align" `Quick test_table_right_alignment;
         Alcotest.test_case "element" `Quick test_element_pp ]);
      ("engine",
       [ Alcotest.test_case "skip constraints" `Quick test_engine_skip_constraints;
         Alcotest.test_case "skip hold" `Quick test_engine_skip_hold ]);
      ("reports",
       [ Alcotest.test_case "constraints empty" `Quick test_constraints_report_empty;
         Alcotest.test_case "histogram single" `Quick test_histogram_single_value ]);
      ("generators",
       [ Alcotest.test_case "soup validation" `Quick test_soup_validation;
         Alcotest.test_case "falsey validation" `Quick test_falsey_validation;
         Alcotest.test_case "soup deterministic" `Quick test_soup_deterministic ]);
      ("files",
       [ Alcotest.test_case "missing files" `Quick test_missing_files_raise ]);
      ("elements",
       [ Alcotest.test_case "snapshot round trip" `Quick
           test_offsets_snapshot_round_trip ]);
      ("samples",
       [ Alcotest.test_case "data files" `Quick test_sample_data_files;
         Alcotest.test_case "endpoint report" `Quick test_endpoint_report ]);
    ]
