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
         Alcotest.test_case "metrics block" `Quick test_json_metrics_block ]);
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
