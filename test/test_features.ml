(* Tests for the extension features: timing-constraint files, K-worst path
   enumeration, Graphviz export, shared-bus workloads, reports and the
   complementary-output library cells. *)

let lib = Hb_cell.Library.default ()
let check_time = Alcotest.(check (float 1e-6))

let single_clock ?(period = 100.0) () =
  Hb_clock.System.make ~overall_period:period
    [ Hb_clock.Waveform.make ~name:"clk" ~multiplier:1 ~rise:0.0
        ~width:(0.4 *. period) ]

(* ------------------------------------------------------------------ *)
(* Config_format (.hbt)                                               *)
(* ------------------------------------------------------------------ *)

let test_hbt_parse () =
  let config =
    Hb_sta.Config_format.parse
      "# comment\n\
       io-clock phi2\n\
       default-input-arrival 2.5\n\
       default-output-required -1\n\
       rise-fall on\n\
       max-iterations 77\n\
       partial-divisor 3\n\
       input din clock phi1 trailing pulse 0 offset 3.5\n\
       output dout clock phi2 leading pulse 1 offset -2\n"
  in
  Alcotest.(check (option string)) "io clock" (Some "phi2")
    config.Hb_sta.Config.io_clock;
  check_time "input arrival" 2.5 config.Hb_sta.Config.default_input_arrival;
  check_time "output required" (-1.0) config.Hb_sta.Config.default_output_required;
  Alcotest.(check bool) "rise fall" true config.Hb_sta.Config.rise_fall;
  Alcotest.(check int) "iterations" 77 config.Hb_sta.Config.max_transfer_iterations;
  Alcotest.(check int) "two overrides" 2
    (List.length config.Hb_sta.Config.port_overrides);
  (match List.assoc_opt "din" config.Hb_sta.Config.port_overrides with
   | Some timing ->
     Alcotest.(check string) "clock" "phi1"
       timing.Hb_sta.Config.edge.Hb_clock.Edge.clock;
     Alcotest.(check bool) "trailing" true
       (timing.Hb_sta.Config.edge.Hb_clock.Edge.polarity = Hb_clock.Edge.Trailing);
     check_time "offset" 3.5 timing.Hb_sta.Config.offset
   | None -> Alcotest.fail "din override missing")

let test_hbt_round_trip () =
  let config =
    Hb_sta.Config_format.parse
      "io-clock c1\nrise-fall on\ninput a clock c1 leading pulse 2 offset 1\n"
  in
  let config2 = Hb_sta.Config_format.parse (Hb_sta.Config_format.to_string config) in
  Alcotest.(check (option string)) "io clock survives"
    config.Hb_sta.Config.io_clock config2.Hb_sta.Config.io_clock;
  Alcotest.(check bool) "rise-fall survives"
    config.Hb_sta.Config.rise_fall config2.Hb_sta.Config.rise_fall;
  Alcotest.(check int) "overrides survive"
    (List.length config.Hb_sta.Config.port_overrides)
    (List.length config2.Hb_sta.Config.port_overrides)

let expect_hbt_failure text =
  match Hb_sta.Config_format.parse text with
  | exception Hb_util.Text.Parse_error { line; _ } ->
    Alcotest.(check int) ("line of " ^ text) 1 line
  | _ -> Alcotest.fail "expected parse failure"

let test_hbt_errors () =
  expect_hbt_failure "nonsense 1\n";
  expect_hbt_failure "rise-fall maybe\n";
  expect_hbt_failure "max-iterations many\n";
  expect_hbt_failure "input a clock c sideways pulse 0 offset 1\n";
  expect_hbt_failure "input a clock c leading pulse -1 offset 1\n";
  (* Daemon and log settings are command-line flags, not directives. *)
  expect_hbt_failure "serve-queue 8\n";
  expect_hbt_failure "log-level info\n"

let test_hbt_overlay_keeps_base () =
  let base =
    { Hb_sta.Config.default with Hb_sta.Config.max_transfer_iterations = 9 }
  in
  let config = Hb_sta.Config_format.parse ~base "rise-fall on\n" in
  Alcotest.(check int) "base field kept" 9
    config.Hb_sta.Config.max_transfer_iterations;
  Alcotest.(check bool) "overlay applied" true config.Hb_sta.Config.rise_fall

let test_hbt_last_override_wins () =
  let config =
    Hb_sta.Config_format.parse
      "input a clock c leading pulse 0 offset 1\n\
       input a clock c leading pulse 0 offset 7\n"
  in
  Alcotest.(check int) "one override" 1
    (List.length config.Hb_sta.Config.port_overrides);
  (match List.assoc_opt "a" config.Hb_sta.Config.port_overrides with
   | Some timing -> check_time "latest offset" 7.0 timing.Hb_sta.Config.offset
   | None -> Alcotest.fail "missing override")

(* ------------------------------------------------------------------ *)
(* Paths.enumerate                                                    *)
(* ------------------------------------------------------------------ *)

(* A reconvergent diamond: ff1 -> {fast inv, slow buf chain} -> nand -> ff2
   gives exactly two distinct paths to the endpoint. *)
let diamond_design () =
  let b = Hb_netlist.Builder.create ~name:"diamond" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"clk" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:true;
  Hb_netlist.Builder.add_port b ~name:"din" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"ff1" ~cell:"dff"
    ~connections:[ ("d", "din"); ("ck", "clk"); ("q", "s") ] ();
  Hb_netlist.Builder.add_instance b ~name:"fast" ~cell:"inv_x4"
    ~connections:[ ("a", "s"); ("y", "p1") ] ();
  Hb_netlist.Builder.add_instance b ~name:"slow1" ~cell:"buf_x1"
    ~connections:[ ("a", "s"); ("y", "t") ] ();
  Hb_netlist.Builder.add_instance b ~name:"slow2" ~cell:"buf_x1"
    ~connections:[ ("a", "t"); ("y", "p2") ] ();
  Hb_netlist.Builder.add_instance b ~name:"join" ~cell:"nand2_x1"
    ~connections:[ ("a", "p1"); ("b", "p2"); ("y", "u") ] ();
  Hb_netlist.Builder.add_instance b ~name:"ff2" ~cell:"dff"
    ~connections:[ ("d", "u"); ("ck", "clk"); ("q", "v") ] ();
  Hb_netlist.Builder.freeze b

let endpoint_of ctx design name =
  let inst =
    match Hb_netlist.Design.find_instance design name with
    | Some i -> i
    | None -> Alcotest.fail "instance"
  in
  List.hd
    (Hashtbl.find ctx.Hb_sta.Context.elements.Hb_sta.Elements.replicas_of_inst inst)

let test_enumerate_diamond () =
  let design = diamond_design () in
  let ctx = Hb_sta.Context.make ~design ~system:(single_clock ()) () in
  let endpoint = endpoint_of ctx design "ff2" in
  let paths = Hb_sta.Paths.enumerate ctx ~endpoint ~limit:10 in
  Alcotest.(check int) "two distinct paths" 2 (List.length paths);
  (match paths with
   | [ worst; second ] ->
     Alcotest.(check bool) "worst first" true
       (Hb_util.Time.le worst.Hb_sta.Paths.slack second.Hb_sta.Paths.slack);
     (* The worst path goes through the two-buffer branch: 4 hops
        (launch + 2 bufs + nand); the fast one has 3. *)
     Alcotest.(check int) "worst hop count" 4
       (List.length worst.Hb_sta.Paths.hops);
     Alcotest.(check int) "second hop count" 3
       (List.length second.Hb_sta.Paths.hops)
   | _ -> Alcotest.fail "expected two paths");
  (* The worst enumerated path agrees with the critical path tracer. *)
  (match paths, Hb_sta.Paths.critical_path ctx ~endpoint with
   | worst :: _, Some critical ->
     check_time "same worst slack" critical.Hb_sta.Paths.slack
       worst.Hb_sta.Paths.slack
   | _ -> Alcotest.fail "missing paths")

let test_enumerate_limit () =
  let design = diamond_design () in
  let ctx = Hb_sta.Context.make ~design ~system:(single_clock ()) () in
  let endpoint = endpoint_of ctx design "ff2" in
  Alcotest.(check int) "limit respected" 1
    (List.length (Hb_sta.Paths.enumerate ctx ~endpoint ~limit:1))

let test_enumerate_ordering_random () =
  (* On a random cloud, enumerated slacks are non-decreasing. *)
  let design, system =
    Hb_workload.Pipelines.two_phase ~seed:99L ~width:3 ~stages:2
      ~gates_per_stage:20 ()
  in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let slacks = Hb_sta.Slacks.compute ctx in
  List.iter
    (fun (endpoint, _) ->
       let paths = Hb_sta.Paths.enumerate ctx ~endpoint ~limit:20 in
       let ss = List.map (fun p -> p.Hb_sta.Paths.slack) paths in
       Alcotest.(check (list (float 1e-9))) "sorted" (List.sort compare ss) ss)
    (Hb_sta.Paths.worst_endpoints slacks ~limit:5)

(* ------------------------------------------------------------------ *)
(* Dot export                                                         *)
(* ------------------------------------------------------------------ *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_dot_design_graph () =
  let design = diamond_design () in
  let ctx = Hb_sta.Context.make ~design ~system:(single_clock ()) () in
  let slacks = Hb_sta.Slacks.compute ctx in
  let dot = Hb_sta.Dot_export.design_graph ctx slacks in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph" dot);
  Alcotest.(check bool) "has ff1" true (contains ~needle:"\"i_ff1\"" dot);
  Alcotest.(check bool) "sync shape" true (contains ~needle:"doubleoctagon" dot);
  Alcotest.(check bool) "no slow highlight when fast" false
    (contains ~needle:"color=red" dot)

let test_dot_highlights_slow () =
  let design = diamond_design () in
  let ctx = Hb_sta.Context.make ~design ~system:(single_clock ~period:2.0 ()) () in
  let _ = Hb_sta.Algorithm1.run ctx in
  let slacks = Hb_sta.Slacks.compute ctx in
  let dot = Hb_sta.Dot_export.design_graph ctx slacks in
  Alcotest.(check bool) "slow nets highlighted" true
    (contains ~needle:"color=red" dot)

let test_dot_path_graph () =
  let design = diamond_design () in
  let ctx = Hb_sta.Context.make ~design ~system:(single_clock ()) () in
  let endpoint = endpoint_of ctx design "ff2" in
  match Hb_sta.Paths.critical_path ctx ~endpoint with
  | Some path ->
    let dot = Hb_sta.Dot_export.path_graph ctx path in
    Alcotest.(check bool) "digraph" true (contains ~needle:"digraph slow_path" dot);
    Alcotest.(check bool) "mentions joiner" true (contains ~needle:"join" dot)
  | None -> Alcotest.fail "expected path"

(* ------------------------------------------------------------------ *)
(* Shared bus workload                                                *)
(* ------------------------------------------------------------------ *)

let test_shared_bus_analyses () =
  let design, system = Hb_workload.Buses.shared_bus ~sources:3 ~width:4 () in
  let report = Hb_sta.Engine.analyse ~design ~system () in
  Alcotest.(check bool) "meets timing" true
    (report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.status
     = Hb_sta.Algorithm1.Meets_timing);
  (* Each bus net has three tristate drivers. *)
  (match Hb_netlist.Design.find_net design "bus0" with
   | Some net ->
     Alcotest.(check int) "three drivers" 3
       (List.length (Hb_netlist.Design.net design net).Hb_netlist.Design.drivers)
   | None -> Alcotest.fail "bus net missing");
  (* Enable endpoints exist for every tristate driver replica. *)
  let elements = report.Hb_sta.Engine.context.Hb_sta.Context.elements in
  let enables = ref 0 in
  for e = 0 to Hb_sta.Elements.count elements - 1 do
    let label = (Hb_sta.Elements.element elements e).Hb_sync.Element.label in
    if contains ~needle:".ck#" label then incr enables
  done;
  Alcotest.(check int) "enable endpoints" 12 !enables

let test_shared_bus_validation () =
  (match Hb_workload.Buses.shared_bus ~sources:1 ~width:4 () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected sources >= 2");
  (match Hb_workload.Buses.shared_bus ~sources:2 ~width:0 () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected width >= 1")

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)
(* ------------------------------------------------------------------ *)

let test_histogram_renders () =
  let design, system =
    Hb_workload.Pipelines.edge_ff ~width:4 ~stages:3 ~gates_per_stage:20 ()
  in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let slacks = Hb_sta.Slacks.compute ctx in
  let text = Hb_sta.Report.slack_histogram slacks ~buckets:8 in
  Alcotest.(check int) "eight lines" 8
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)))

let test_paths_report_mentions_elements () =
  let design = diamond_design () in
  let ctx = Hb_sta.Context.make ~design ~system:(single_clock ()) () in
  let slacks = Hb_sta.Slacks.compute ctx in
  let text = Hb_sta.Report.paths_report ctx slacks ~limit:2 in
  Alcotest.(check bool) "mentions ff1" true (contains ~needle:"ff1" text)

(* ------------------------------------------------------------------ *)
(* Multicycle exceptions                                              *)
(* ------------------------------------------------------------------ *)

let test_multicycle_extends_slack () =
  let design = diamond_design () in
  let slack multicycle =
    let config = { Hb_sta.Config.default with Hb_sta.Config.multicycle } in
    let ctx = Hb_sta.Context.make ~design ~system:(single_clock ()) ~config () in
    let _ = Hb_sta.Algorithm1.run ctx in
    let endpoint = endpoint_of ctx design "ff2" in
    (Hb_sta.Slacks.compute ctx).Hb_sta.Slacks.element_input_slack.(endpoint)
  in
  let base = slack [] in
  let relaxed = slack [ ("ff2", 2) ] in
  (* One extra period of the 100 ns clock. *)
  check_time "one extra period" (base +. 100.0) relaxed;
  (* n = 1 is a no-op. *)
  check_time "n=1 neutral" base (slack [ ("ff2", 1) ])

let test_multicycle_rescues_slow_design () =
  let design = diamond_design () in
  let run multicycle period =
    let config = { Hb_sta.Config.default with Hb_sta.Config.multicycle } in
    let ctx =
      Hb_sta.Context.make ~design ~system:(single_clock ~period ()) ~config ()
    in
    (Hb_sta.Algorithm1.run ctx).Hb_sta.Algorithm1.status
  in
  Alcotest.(check bool) "slow without exception" true
    (run [] 4.0 = Hb_sta.Algorithm1.Slow_paths);
  Alcotest.(check bool) "ok with 2-cycle exception" true
    (run [ ("ff2", 2) ] 4.0 = Hb_sta.Algorithm1.Meets_timing)

let test_multicycle_in_hbt () =
  let config = Hb_sta.Config_format.parse "multicycle u1 3\nmulticycle u1 2\n" in
  Alcotest.(check (list (pair string int))) "last wins" [ ("u1", 2) ]
    config.Hb_sta.Config.multicycle;
  (match Hb_sta.Config_format.parse "multicycle u1 0\n" with
   | exception Hb_util.Text.Parse_error { line; _ } ->
     Alcotest.(check int) "line" 1 line
   | _ -> Alcotest.fail "expected rejection of n=0");
  let round =
    Hb_sta.Config_format.parse (Hb_sta.Config_format.to_string config)
  in
  Alcotest.(check (list (pair string int))) "round trips" [ ("u1", 2) ]
    round.Hb_sta.Config.multicycle

let test_multicycle_rejects_bad_instance_count () =
  let design = diamond_design () in
  let config =
    { Hb_sta.Config.default with Hb_sta.Config.multicycle = [ ("ff2", 0) ] }
  in
  match Hb_sta.Context.make ~design ~system:(single_clock ()) ~config () with
  | exception Hb_sta.Elements.Build_error _ -> ()
  | _ -> Alcotest.fail "expected Build_error for n=0"

(* ------------------------------------------------------------------ *)
(* Multi-corner analysis                                              *)
(* ------------------------------------------------------------------ *)

let test_corners_ordering () =
  let design, system =
    Hb_workload.Pipelines.edge_ff ~width:4 ~stages:3 ~gates_per_stage:20 ()
  in
  let report = Hb_sta.Corners.analyse ~design ~system () in
  Alcotest.(check int) "three corners" 3
    (List.length report.Hb_sta.Corners.results);
  (* Worst slack degrades monotonically from fast to slow. *)
  let slacks =
    List.map (fun r -> r.Hb_sta.Corners.worst_slack)
      report.Hb_sta.Corners.results
  in
  Alcotest.(check (list (float 1e-9))) "fast >= nominal >= slow"
    (List.rev (List.sort compare slacks)) slacks

let test_corners_detects_slow_corner () =
  (* Pick a period where nominal passes but the slow corner fails. *)
  let design, template =
    Hb_workload.Pipelines.edge_ff ~width:4 ~stages:3 ~gates_per_stage:25 ()
  in
  let min_nominal = Hb_sta.Minperiod.search ~design ~template ~tolerance:0.05 () in
  let system =
    Hb_sta.Minperiod.scaled_system template
      ~period:(min_nominal.Hb_sta.Minperiod.min_period +. 0.2)
  in
  let report = Hb_sta.Corners.analyse ~design ~system () in
  let by_name name =
    List.find
      (fun r -> r.Hb_sta.Corners.corner.Hb_sta.Corners.corner_name = name)
      report.Hb_sta.Corners.results
  in
  Alcotest.(check bool) "nominal ok" true
    ((by_name "nominal").Hb_sta.Corners.status = Hb_sta.Algorithm1.Meets_timing);
  Alcotest.(check bool) "slow corner fails" true
    ((by_name "slow").Hb_sta.Corners.status = Hb_sta.Algorithm1.Slow_paths);
  Alcotest.(check bool) "not all met" false report.Hb_sta.Corners.all_corners_met

(* One corner the way [Corners.analyse] used to run it, kept as the
   reference: a context of its own on a provider that scales every delay,
   then Algorithm 1 and the hold check. *)
let fresh_corner ~design ~system ~config (corner : Hb_sta.Corners.corner) =
  let scale = corner.Hb_sta.Corners.delay_scale in
  let base = Hb_sta.Delays.lumped in
  let delays =
    { Hb_sta.Delays.name = "scaled";
      evaluate =
        (fun ~design ~inst ~arc ~out_net ->
           let rise, fall =
             base.Hb_sta.Delays.evaluate ~design ~inst ~arc ~out_net
           in
           (rise *. scale, fall *. scale));
    }
  in
  let ctx = Hb_sta.Context.make ~design ~system ~config ~delays () in
  let outcome = Hb_sta.Algorithm1.run ctx in
  ( outcome.Hb_sta.Algorithm1.status,
    outcome.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst,
    List.length (Hb_sta.Holdcheck.check ctx) )

let describe_corner (name, status, worst, hold) =
  Printf.sprintf "%s %s %Lx hold %d" name
    (match status with
     | Hb_sta.Algorithm1.Meets_timing -> "ok"
     | Hb_sta.Algorithm1.Slow_paths -> "slow")
    (Int64.bits_of_float worst) hold

(* Every input 30 ns early, so the hold counts compared are not zero. *)
let test_corners_match_fresh_contexts () =
  let config =
    { Hb_sta.Config.default with Hb_sta.Config.default_input_arrival = -30.0 }
  in
  List.iter
    (fun (name, (design, system)) ->
       let report = Hb_sta.Corners.analyse ~design ~system ~config () in
       let expected =
         List.map
           (fun (corner : Hb_sta.Corners.corner) ->
              let status, worst, hold =
                fresh_corner ~design ~system ~config corner
              in
              describe_corner
                (corner.Hb_sta.Corners.corner_name, status, worst, hold))
           Hb_sta.Corners.typical
       in
       Alcotest.(check (list string)) name expected
         (List.map
            (fun (r : Hb_sta.Corners.result) ->
               describe_corner
                 ( r.Hb_sta.Corners.corner.Hb_sta.Corners.corner_name,
                   r.Hb_sta.Corners.status,
                   r.Hb_sta.Corners.worst_slack,
                   r.Hb_sta.Corners.hold_violations ))
            report.Hb_sta.Corners.results);
       Alcotest.(check bool) (name ^ ": hold violations seen") true
         report.Hb_sta.Corners.any_hold_violation)
    [ ("sm1f", Hb_workload.Chips.sm1f ());
      ("scale10k", Hb_workload.Scale.scale10k ()) ];
  let design = diamond_design () in
  match
    Hb_sta.Corners.analyse ~design ~system:(single_clock ())
      ~corners:[ { Hb_sta.Corners.corner_name = "zero"; delay_scale = 0.0 } ]
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a zero delay scale must be rejected"

(* ------------------------------------------------------------------ *)
(* JSON export                                                        *)
(* ------------------------------------------------------------------ *)

let test_json_escaping () =
  let escape = Hb_util.Json.escape in
  Alcotest.(check string) "quotes and backslash" "a\\\"b\\\\c"
    (escape "a\"b\\c");
  Alcotest.(check string) "newline" "x\\ny" (escape "x\ny");
  (* Every ASCII byte, escaped and read back, comes back unchanged. *)
  for code = 0x00 to 0x7f do
    let s = String.make 1 (Char.chr code) in
    match Hb_util.Json.parse ("\"" ^ escape s ^ "\"") with
    | Hb_util.Json.String back ->
      Alcotest.(check string) (Printf.sprintf "byte 0x%02x" code) s back
    | _ -> Alcotest.fail (Printf.sprintf "byte 0x%02x: not a string" code)
  done

let test_json_report_shape () =
  let design = diamond_design () in
  let report = Hb_sta.Engine.analyse ~design ~system:(single_clock ()) () in
  let json = Hb_sta.Json_export.report report in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("contains " ^ needle) true
         (contains ~needle json))
    [ "\"design\": \"diamond\""; "\"verdict\": \"meets_timing\"";
      "\"endpoints\""; "\"passes\""; "\"timings\"";
      "\"element\": \"ff2#0\"" ];
  Alcotest.(check bool) "no slow nets when fast" true
    (contains ~needle:"\"slow_nets\": []" json)

let test_json_reports_slow () =
  let design = diamond_design () in
  let report =
    Hb_sta.Engine.analyse ~design ~system:(single_clock ~period:2.0 ()) ()
  in
  let json = Hb_sta.Json_export.report report in
  Alcotest.(check bool) "slow verdict" true
    (contains ~needle:"\"verdict\": \"slow_paths\"" json);
  Alcotest.(check bool) "slow nets listed" false
    (contains ~needle:"\"slow_nets\": []" json)

(* ------------------------------------------------------------------ *)
(* Delay annotations (.hbd)                                           *)
(* ------------------------------------------------------------------ *)

let test_annotation_parse () =
  let a =
    Hb_sta.Annotation.parse
      "# comment\ndelay u1 rise 1.5 fall 1.25\nscale u2 0.8\n"
  in
  Alcotest.(check int) "two entries" 2 (Hb_sta.Annotation.count a)

let expect_annotation_failure text =
  match Hb_sta.Annotation.parse text with
  | exception Hb_util.Text.Parse_error { line; _ } ->
    Alcotest.(check int) ("line of " ^ text) 1 line
  | _ -> Alcotest.fail "expected failure"

let test_annotation_errors () =
  expect_annotation_failure "bogus u1 1\n";
  expect_annotation_failure "delay u1 rise x fall 1\n";
  expect_annotation_failure "delay u1 rise -1 fall 1\n";
  expect_annotation_failure "scale u1 0\n"

let test_annotation_changes_delays () =
  let design = diamond_design () in
  (* Slack at the ff2 endpoint specifically, so unrelated port paths do
     not mask the effect. *)
  let ff2_slack delays =
    let ctx = Hb_sta.Context.make ~design ~system:(single_clock ()) ~delays () in
    let _ = Hb_sta.Algorithm1.run ctx in
    let endpoint = endpoint_of ctx design "ff2" in
    (Hb_sta.Slacks.compute ctx).Hb_sta.Slacks.element_input_slack.(endpoint)
  in
  let base = ff2_slack Hb_sta.Delays.lumped in
  (* Pin the join gate at 12 ns: the endpoint slack must drop by roughly
     the difference from its sub-nanosecond base delay. *)
  let slowed =
    Hb_sta.Annotation.apply
      (Hb_sta.Annotation.parse "delay join rise 12.0 fall 12.0\n")
      ~base:Hb_sta.Delays.lumped
  in
  let with_slow_join = ff2_slack slowed in
  Alcotest.(check bool) "annotation slows the path" true
    (with_slow_join < base -. 10.0);
  (* And a scale below 1 on the slow branch speeds the endpoint up. *)
  let sped =
    Hb_sta.Annotation.apply
      (Hb_sta.Annotation.parse "scale slow1 0.1\nscale slow2 0.1\n")
      ~base:Hb_sta.Delays.lumped
  in
  Alcotest.(check bool) "scaling speeds up" true (ff2_slack sped >= base)

let test_annotation_unused () =
  let design = diamond_design () in
  let a = Hb_sta.Annotation.parse "scale nonexistent 0.5\nscale join 0.5\n" in
  Alcotest.(check (list string)) "stale names reported" [ "nonexistent" ]
    (Hb_sta.Annotation.unused a ~design)

(* [Annotation.apply] and [Annotation.unused] as they were before their
   name tables: a list lookup per arc evaluation, where the first entry
   for an instance wins, and a name search of the design per entry. The
   references for the tables. *)
let list_provider entries ~(base : Hb_sta.Delays.t) =
  { base with
    Hb_sta.Delays.evaluate =
      (fun ~design ~inst ~arc ~out_net ->
         let name =
           (Hb_netlist.Design.instance design inst).Hb_netlist.Design.inst_name
         in
         match List.assoc_opt name entries with
         | Some (Hb_sta.Annotation.Fixed { rise; fall }) -> (rise, fall)
         | Some (Hb_sta.Annotation.Scaled f) ->
           let rise, fall = base.Hb_sta.Delays.evaluate ~design ~inst ~arc ~out_net in
           (rise *. f, fall *. f)
         | None -> base.Hb_sta.Delays.evaluate ~design ~inst ~arc ~out_net) }

let list_unused entries ~design =
  List.filter_map
    (fun (name, _) ->
       match Hb_netlist.Design.find_instance design name with
       | Some _ -> None
       | None -> Some name)
    entries
  |> List.sort_uniq String.compare

let test_annotation_table_matches_list () =
  let design, _ = Hb_workload.Chips.des () in
  let count = Hb_netlist.Design.instance_count design in
  let rng = Hb_util.Rng.create 20L in
  (* Draws from a quarter of the instances, so many repeat with
     different entries, plus names the design lacks. *)
  let entries =
    List.init 600 (fun k ->
        let name =
          if k mod 50 = 0 then Printf.sprintf "ghost%d" (k mod 150)
          else
            (Hb_netlist.Design.instance design
               (Hb_util.Rng.int rng (count / 4))).Hb_netlist.Design.inst_name
        in
        if Hb_util.Rng.bool rng then
          ( name,
            Hb_sta.Annotation.Fixed
              { rise = Hb_util.Rng.float rng 3.0;
                fall = Hb_util.Rng.float rng 3.0 } )
        else
          (name, Hb_sta.Annotation.Scaled (0.5 +. Hb_util.Rng.float rng 1.0)))
  in
  Alcotest.(check bool) "some instances repeat" true
    (List.length (List.sort_uniq compare (List.map fst entries))
     < List.length entries);
  let annotation = Hb_sta.Annotation.of_entries entries in
  let base = Hb_sta.Delays.lumped in
  let hashed = Hb_sta.Annotation.apply annotation ~base in
  let listed = list_provider entries ~base in
  let bits x = Int64.bits_of_float x in
  let arcs = ref 0 in
  for inst = 0 to count - 1 do
    let record = Hb_netlist.Design.instance design inst in
    let cell = record.Hb_netlist.Design.cell in
    List.iter
      (fun (out_pin : Hb_cell.Cell.pin) ->
         match
           Hb_netlist.Design.net_of_pin design ~inst
             ~pin:out_pin.Hb_cell.Cell.pin_name
         with
         | None -> ()
         | Some out_net ->
           List.iter
             (fun arc ->
                incr arcs;
                let r1, f1 =
                  hashed.Hb_sta.Delays.evaluate ~design ~inst ~arc ~out_net
                in
                let r2, f2 =
                  listed.Hb_sta.Delays.evaluate ~design ~inst ~arc ~out_net
                in
                if bits r1 <> bits r2 || bits f1 <> bits f2 then
                  Alcotest.failf "%s: (%h, %h), the list lookup gives (%h, %h)"
                    record.Hb_netlist.Design.inst_name r1 f1 r2 f2)
             (Hb_cell.Cell.arcs_to cell ~output:out_pin.Hb_cell.Cell.pin_name))
      (Hb_cell.Cell.output_pins cell)
  done;
  Alcotest.(check bool) "arcs compared" true (!arcs > 1000);
  Alcotest.(check (list string)) "unused names" (list_unused entries ~design)
    (Hb_sta.Annotation.unused annotation ~design)

(* ------------------------------------------------------------------ *)
(* Minimum-period search                                              *)
(* ------------------------------------------------------------------ *)

let test_minperiod_bisects () =
  let design, template =
    Hb_workload.Pipelines.edge_ff ~width:3 ~stages:3 ~gates_per_stage:15 ()
  in
  let result = Hb_sta.Minperiod.search ~design ~template ~tolerance:0.05 () in
  Alcotest.(check bool) "positive period" true
    (result.Hb_sta.Minperiod.min_period > 0.0);
  Alcotest.(check bool) "meets at the reported period" true
    (Hb_util.Time.ge result.Hb_sta.Minperiod.worst_slack_at_min 0.0
     ||
     (* the reported slack comes from the last passing evaluation *)
     result.Hb_sta.Minperiod.worst_slack_at_min > -0.06);
  (* Just below the minimum, timing must fail. *)
  let below =
    Hb_sta.Minperiod.scaled_system template
      ~period:(result.Hb_sta.Minperiod.min_period -. 0.2)
  in
  let ctx = Hb_sta.Context.make ~design ~system:below () in
  Alcotest.(check bool) "fails just below" true
    ((Hb_sta.Algorithm1.run ctx).Hb_sta.Algorithm1.status
     = Hb_sta.Algorithm1.Slow_paths);
  (* At the minimum, timing passes. *)
  let at =
    Hb_sta.Minperiod.scaled_system template
      ~period:result.Hb_sta.Minperiod.min_period
  in
  let ctx = Hb_sta.Context.make ~design ~system:at () in
  Alcotest.(check bool) "passes at minimum" true
    ((Hb_sta.Algorithm1.run ctx).Hb_sta.Algorithm1.status
     = Hb_sta.Algorithm1.Meets_timing)

let test_minperiod_rejects_hopeless () =
  let design, template =
    Hb_workload.Pipelines.edge_ff ~width:3 ~stages:3 ~gates_per_stage:15 ()
  in
  (match
     Hb_sta.Minperiod.search ~design ~template ~hi:1.0 ~lo:0.5 ()
   with
   | exception Hb_sta.Error.Error (Hb_sta.Error.Invalid _) -> ()
   | _ -> Alcotest.fail "expected failure at hopeless hi")

let test_scaled_system_keeps_duty () =
  let template =
    Hb_clock.System.make ~overall_period:100.0
      [ Hb_clock.Waveform.make ~name:"a" ~multiplier:2 ~rise:5.0 ~width:20.0 ]
  in
  let scaled = Hb_sta.Minperiod.scaled_system template ~period:50.0 in
  let w = List.hd scaled.Hb_clock.System.waveforms in
  check_time "rise scaled" 2.5 w.Hb_clock.Waveform.rise;
  check_time "width scaled" 10.0 w.Hb_clock.Waveform.width;
  Alcotest.(check int) "multiplier kept" 2 w.Hb_clock.Waveform.multiplier

(* ------------------------------------------------------------------ *)
(* Complementary-output library cells                                 *)
(* ------------------------------------------------------------------ *)

let test_dff2_cell_shape () =
  let cell = Hb_cell.Library.find_exn lib "dff2" in
  Alcotest.(check int) "two outputs" 2
    (List.length (Hb_cell.Cell.output_pins cell));
  let latch2 = Hb_cell.Library.find_exn lib "latch2" in
  Alcotest.(check int) "latch2 outputs" 2
    (List.length (Hb_cell.Cell.output_pins latch2))

let test_qb_only_connection () =
  (* Using only the complementary output is legal. *)
  let b = Hb_netlist.Builder.create ~name:"qb" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"clk" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:true;
  Hb_netlist.Builder.add_port b ~name:"d" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"ff" ~cell:"dff2"
    ~connections:[ ("d", "d"); ("ck", "clk"); ("qb", "nq") ] ();
  Hb_netlist.Builder.add_instance b ~name:"g" ~cell:"inv_x1"
    ~connections:[ ("a", "nq"); ("y", "o") ] ();
  Hb_netlist.Builder.add_instance b ~name:"ff2" ~cell:"dff"
    ~connections:[ ("d", "o"); ("ck", "clk"); ("q", "oo") ] ();
  let design = Hb_netlist.Builder.freeze b in
  let report = Hb_sta.Engine.analyse ~design ~system:(single_clock ()) () in
  Alcotest.(check bool) "analyses fine" true
    (Hb_util.Time.is_finite
       report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst)

let () =
  Alcotest.run "features"
    [ ("hbt",
       [ Alcotest.test_case "parse" `Quick test_hbt_parse;
         Alcotest.test_case "round trip" `Quick test_hbt_round_trip;
         Alcotest.test_case "errors" `Quick test_hbt_errors;
         Alcotest.test_case "overlay keeps base" `Quick test_hbt_overlay_keeps_base;
         Alcotest.test_case "last override wins" `Quick test_hbt_last_override_wins ]);
      ("enumerate",
       [ Alcotest.test_case "diamond" `Quick test_enumerate_diamond;
         Alcotest.test_case "limit" `Quick test_enumerate_limit;
         Alcotest.test_case "ordering" `Quick test_enumerate_ordering_random ]);
      ("dot",
       [ Alcotest.test_case "design graph" `Quick test_dot_design_graph;
         Alcotest.test_case "highlights slow" `Quick test_dot_highlights_slow;
         Alcotest.test_case "path graph" `Quick test_dot_path_graph ]);
      ("bus",
       [ Alcotest.test_case "analyses" `Quick test_shared_bus_analyses;
         Alcotest.test_case "validation" `Quick test_shared_bus_validation ]);
      ("reports",
       [ Alcotest.test_case "histogram" `Quick test_histogram_renders;
         Alcotest.test_case "paths report" `Quick test_paths_report_mentions_elements ]);
      ("multicycle",
       [ Alcotest.test_case "extends slack" `Quick test_multicycle_extends_slack;
         Alcotest.test_case "rescues slow design" `Quick test_multicycle_rescues_slow_design;
         Alcotest.test_case "hbt directive" `Quick test_multicycle_in_hbt;
         Alcotest.test_case "rejects bad count" `Quick
           test_multicycle_rejects_bad_instance_count ]);
      ("corners",
       [ Alcotest.test_case "ordering" `Quick test_corners_ordering;
         Alcotest.test_case "detects slow corner" `Quick test_corners_detects_slow_corner;
         Alcotest.test_case "= fresh contexts" `Quick
           test_corners_match_fresh_contexts ]);
      ("json",
       [ Alcotest.test_case "escaping" `Quick test_json_escaping;
         Alcotest.test_case "report shape" `Quick test_json_report_shape;
         Alcotest.test_case "reports slow" `Quick test_json_reports_slow ]);
      ("annotation",
       [ Alcotest.test_case "parse" `Quick test_annotation_parse;
         Alcotest.test_case "errors" `Quick test_annotation_errors;
         Alcotest.test_case "changes delays" `Quick test_annotation_changes_delays;
         Alcotest.test_case "unused" `Quick test_annotation_unused;
         Alcotest.test_case "table = list lookup" `Quick
           test_annotation_table_matches_list ]);
      ("minperiod",
       [ Alcotest.test_case "bisects" `Quick test_minperiod_bisects;
         Alcotest.test_case "rejects hopeless" `Quick test_minperiod_rejects_hopeless;
         Alcotest.test_case "scaled system" `Quick test_scaled_system_keeps_duty ]);
      ("complementary",
       [ Alcotest.test_case "cell shapes" `Quick test_dff2_cell_shape;
         Alcotest.test_case "qb-only connection" `Quick test_qb_only_connection ]);
    ]
