(* End-to-end integration tests: the Table 1 designs through the full
   engine, file-format round trips into analysis, hierarchical-abstraction
   equivalence, and cross-method validation on larger inputs. *)

let lib = Hb_cell.Library.default ()

let analyse (design, system) = Hb_sta.Engine.analyse ~design ~system ()

let worst report =
  report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst

(* ------------------------------------------------------------------ *)
(* Table 1 designs end-to-end                                         *)
(* ------------------------------------------------------------------ *)

let test_des_analysis_completes () =
  let report = analyse (Hb_workload.Chips.des ()) in
  Alcotest.(check bool) "finite worst slack" true
    (Hb_util.Time.is_finite (worst report));
  Alcotest.(check bool) "not capped" false
    report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.capped

let test_alu_meets_timing () =
  let report = analyse (Hb_workload.Chips.alu ()) in
  Alcotest.(check bool) "ALU meets timing at 100ns" true
    (report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.status
     = Hb_sta.Algorithm1.Meets_timing)

let test_sm1_hierarchy_preserves_worst_slack () =
  (* The macro abstraction carries exactly the module's worst internal
     path, so SM1H and SM1F agree on the design's worst slack. *)
  let flat = analyse (Hb_workload.Chips.sm1f ()) in
  let hier = analyse (Hb_workload.Chips.sm1h ()) in
  Alcotest.(check (float 1e-6)) "same worst slack" (worst flat) (worst hier)

let test_table1_shape () =
  (* The Table 1 scaling shape: run-time grows with design size, and the
     hierarchical description analyses faster than the flat one. Measured
     in work proxies (cells and analysis passes), not wall-clock, to stay
     deterministic. *)
  let cells (design, _) =
    (Hb_netlist.Stats.compute design).Hb_netlist.Stats.cells
  in
  let des = cells (Hb_workload.Chips.des ()) in
  let alu = cells (Hb_workload.Chips.alu ()) in
  let sm1f = cells (Hb_workload.Chips.sm1f ()) in
  let sm1h = cells (Hb_workload.Chips.sm1h ()) in
  Alcotest.(check bool) "DES > ALU > SM1F > SM1H" true
    (des > alu && alu > sm1f && sm1f > sm1h)

(* ------------------------------------------------------------------ *)
(* File formats through the engine                                    *)
(* ------------------------------------------------------------------ *)

let test_file_round_trip_analysis () =
  let design, system =
    Hb_workload.Pipelines.two_phase ~width:4 ~stages:3 ~gates_per_stage:15 ()
  in
  let direct = Hb_sta.Engine.analyse ~design ~system () in
  let hbn = Filename.temp_file "design" ".hbn" in
  let hbc = Filename.temp_file "clocks" ".hbc" in
  Hb_netlist.Hbn_format.write_file design hbn;
  let oc = open_out hbc in
  output_string oc (Hb_clock.System.to_string system);
  close_out oc;
  let design2 = Hb_netlist.Hbn_format.parse_file ~library:lib hbn in
  let system2 = Hb_clock.System.parse_file hbc in
  Sys.remove hbn;
  Sys.remove hbc;
  let reparsed = Hb_sta.Engine.analyse ~design:design2 ~system:system2 () in
  Alcotest.(check (float 1e-6)) "identical verdict through files"
    (worst direct) (worst reparsed)

(* ------------------------------------------------------------------ *)
(* Figure 1 headline numbers                                          *)
(* ------------------------------------------------------------------ *)

let test_figure1_settling_times () =
  let design, system = Hb_workload.Figures.figure1 () in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let main =
    List.fold_left
      (fun acc (_, m, n) -> if n > snd acc then (m, n) else acc)
      (0, 0)
      (Hb_sta.Passes.cluster_settling_times ctx.Hb_sta.Context.passes
         ~table:ctx.Hb_sta.Context.table)
  in
  Alcotest.(check (pair int int))
    "time-multiplexed cone: 2 passes instead of 4" (2, 4) main

(* ------------------------------------------------------------------ *)
(* Cross-validation on bigger inputs                                  *)
(* ------------------------------------------------------------------ *)

(* [(element, slack)] for every endpoint the exhaustive path walk of
   {!Hb_sta.Reference.evaluate} reached: its finite input slacks. A
   truncated walk fails the test. *)
let enumerated_endpoints (exact : Hb_sta.Reference.verdict) =
  if exact.Hb_sta.Reference.truncated then
    Alcotest.fail "reference path walk truncated";
  Array.to_list exact.Hb_sta.Reference.element_input_slack
  |> List.mapi (fun element slack -> (element, slack))
  |> List.filter (fun (_, slack) -> Hb_util.Time.is_finite slack)

let test_block_vs_enumeration_alu () =
  let design, system = Hb_workload.Chips.alu () in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let block = Hb_sta.Slacks.compute ctx in
  let exact = Hb_sta.Reference.evaluate ctx in
  List.iter
    (fun (element, slack) ->
       Alcotest.(check (float 1e-6))
         (Printf.sprintf "endpoint %d" element)
         slack
         block.Hb_sta.Slacks.element_input_slack.(element))
    (enumerated_endpoints exact)

let test_multifrequency_pipeline () =
  (* Latches on a 1x clock feeding FFs on 2x and 4x clocks: the multirate
     replication path end-to-end. *)
  let b = Hb_netlist.Builder.create ~name:"mf" ~library:lib in
  let system = Hb_workload.Clocks.multifrequency ~period:100.0 in
  List.iter
    (fun w ->
       Hb_netlist.Builder.add_port b ~name:w.Hb_clock.Waveform.name
         ~direction:Hb_netlist.Design.Port_in ~is_clock:true)
    system.Hb_clock.System.waveforms;
  Hb_netlist.Builder.add_port b ~name:"d" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"l1" ~cell:"latch"
    ~connections:[ ("d", "d"); ("ck", "clk1"); ("q", "a0") ] ();
  Hb_netlist.Builder.add_instance b ~name:"g1" ~cell:"nand2_x1"
    ~connections:[ ("a", "a0"); ("b", "a0"); ("y", "a1") ] ();
  Hb_netlist.Builder.add_instance b ~name:"f2" ~cell:"dff"
    ~connections:[ ("d", "a1"); ("ck", "clk2"); ("q", "b0") ] ();
  Hb_netlist.Builder.add_instance b ~name:"g2" ~cell:"inv_x1"
    ~connections:[ ("a", "b0"); ("y", "b1") ] ();
  Hb_netlist.Builder.add_instance b ~name:"f4" ~cell:"dff"
    ~connections:[ ("d", "b1"); ("ck", "clk4"); ("q", "c0") ] ();
  let design = Hb_netlist.Builder.freeze b in
  let report = Hb_sta.Engine.analyse ~design ~system () in
  (* 1 latch + 2 FF replicas + 4 FF replicas + 1 input boundary = 8. *)
  Alcotest.(check int) "element count" 8
    (Hb_sta.Elements.count report.Hb_sta.Engine.context.Hb_sta.Context.elements);
  Alcotest.(check bool) "meets timing" true
    (report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.status
     = Hb_sta.Algorithm1.Meets_timing);
  (* Cross-check against enumeration. *)
  let ctx = report.Hb_sta.Engine.context in
  let block = Hb_sta.Slacks.compute ctx in
  let exact = Hb_sta.Reference.evaluate ctx in
  List.iter
    (fun (element, slack) ->
       Alcotest.(check (float 1e-6))
         (Printf.sprintf "endpoint %d" element)
         slack block.Hb_sta.Slacks.element_input_slack.(element))
    (enumerated_endpoints exact)

(* ------------------------------------------------------------------ *)
(* Redesign closes the loop on a real design                          *)
(* ------------------------------------------------------------------ *)

let test_redesign_des_improves () =
  (* DES is too slow at 100 ns; a few redesign iterations must improve the
     worst slack even if full closure needs more drive levels than the
     library has. *)
  let design, system = Hb_workload.Chips.des () in
  let before =
    let ctx = Hb_sta.Context.make ~design ~system () in
    (Hb_sta.Algorithm1.run ctx).Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst
  in
  let result =
    Hb_resynth.Loop.optimise ~design ~system ~library:lib ~max_iterations:5 ()
  in
  Alcotest.(check bool) "worst slack improved" true
    (result.Hb_resynth.Loop.final_worst_slack > before)

(* ------------------------------------------------------------------ *)
(* Algorithm interplay                                                *)
(* ------------------------------------------------------------------ *)

let test_algorithm1_offsets_witness_verdict () =
  (* After Algorithm 1 says Meets_timing, a fresh slack evaluation at the
     final offsets must show every terminal strictly positive. *)
  let design, system =
    Hb_workload.Pipelines.two_phase ~width:4 ~stages:4 ~gates_per_stage:25 ()
  in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let outcome = Hb_sta.Algorithm1.run ctx in
  Alcotest.(check bool) "meets" true
    (outcome.Hb_sta.Algorithm1.status = Hb_sta.Algorithm1.Meets_timing);
  Alcotest.(check bool) "offsets witness the verdict" true
    (Hb_sta.Slacks.all_positive (Hb_sta.Slacks.compute ctx))

let test_engine_preserves_algorithm1_state () =
  (* Engine.analyse runs Algorithm 2 but must restore Algorithm 1's
     offsets. *)
  let design, system =
    Hb_workload.Pipelines.edge_ff ~period:14.0 ~width:4 ~stages:3
      ~gates_per_stage:25 ()
  in
  let report = Hb_sta.Engine.analyse ~design ~system () in
  let recomputed = Hb_sta.Slacks.compute report.Hb_sta.Engine.context in
  Alcotest.(check (float 1e-9)) "same worst slack after restore"
    (worst report) recomputed.Hb_sta.Slacks.worst

let prop_random_pipelines_analyse =
  QCheck.Test.make ~name:"random pipelines analyse without errors" ~count:25
    QCheck.(triple (int_range 1 10_000) (int_range 2 5) (int_range 5 40))
    (fun (seed, stages, gates) ->
       let design, system =
         Hb_workload.Pipelines.two_phase ~seed:(Int64.of_int seed) ~width:4
           ~stages ~gates_per_stage:gates ()
       in
       let report = Hb_sta.Engine.analyse ~design ~system () in
       Hb_util.Time.is_finite (worst report)
       && not report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.capped)

let prop_hierarchy_equivalence =
  (* Tagging all combinational logic as one module and collapsing it to a
     macro preserves the worst slack: macro arcs carry exact longest
     paths at the same loads. *)
  QCheck.Test.make ~name:"hierarchy collapse preserves worst slack" ~count:10
    QCheck.(int_range 1 10_000)
    (fun seed ->
       let design, system =
         Hb_workload.Pipelines.edge_ff ~seed:(Int64.of_int seed) ~width:3
           ~stages:3 ~gates_per_stage:12 ()
       in
       let tagged =
         Hb_netlist.Rebuild.with_module_paths design ~f:(fun _ inst ->
             if Hb_cell.Kind.is_comb
                 inst.Hb_netlist.Design.cell.Hb_cell.Cell.kind
             then "all_logic"
             else "")
       in
       let collapsed = Hb_netlist.Hierarchy.collapse tagged in
       let flat = Hb_sta.Engine.analyse ~design ~system () in
       let hier = Hb_sta.Engine.analyse ~design:collapsed ~system () in
       Float.abs (worst flat -. worst hier) < 1e-6)

let prop_soups_block_equals_enumeration =
  (* Random multi-phase soups with mixed flip-flops and latches: the block
     method and exact path enumeration agree on every endpoint. *)
  QCheck.Test.make ~name:"soups: block = enumeration" ~count:30
    QCheck.(triple (int_range 1 100_000) (int_range 1 4) (int_range 2 12))
    (fun (seed, phases, registers) ->
       let design, system =
         Hb_workload.Soup.random ~seed:(Int64.of_int seed) ~phases ~registers
           ~gates:40 ()
       in
       let ctx = Hb_sta.Context.make ~design ~system () in
       let block = Hb_sta.Slacks.compute ctx in
       let exact = Hb_sta.Reference.evaluate ctx in
       List.for_all
            (fun (e, s) ->
               Float.abs (s -. block.Hb_sta.Slacks.element_input_slack.(e))
               < 1e-6)
            (enumerated_endpoints exact))

let prop_soups_algorithms_terminate =
  (* Algorithm 1 and 2 converge (no cap hit) on every random soup. *)
  QCheck.Test.make ~name:"soups: algorithms terminate" ~count:30
    QCheck.(pair (int_range 1 100_000) (int_range 1 4))
    (fun (seed, phases) ->
       let design, system =
         Hb_workload.Soup.random ~seed:(Int64.of_int seed) ~phases ()
       in
       let ctx = Hb_sta.Context.make ~design ~system () in
       let outcome = Hb_sta.Algorithm1.run ctx in
       let times = Hb_sta.Algorithm2.run ctx in
       (not outcome.Hb_sta.Algorithm1.capped)
       && not times.Hb_sta.Algorithm2.capped)

let prop_soups_passes_minimal =
  (* The chosen pass counts never exceed the per-source-edge accounting. *)
  QCheck.Test.make ~name:"soups: minimized <= per-edge settling" ~count:30
    QCheck.(pair (int_range 1 100_000) (int_range 2 4))
    (fun (seed, phases) ->
       let design, system =
         Hb_workload.Soup.random ~seed:(Int64.of_int seed) ~phases ()
       in
       let ctx = Hb_sta.Context.make ~design ~system () in
       let s =
         Hb_sta.Passes.settling_times ctx.Hb_sta.Context.passes
           ~table:ctx.Hb_sta.Context.table
       in
       s.Hb_sta.Passes.minimized_passes <= s.Hb_sta.Passes.naive_settling_times)

let prop_transfer_monotone =
  (* The proposition behind Algorithm 1: a complete slack transfer never
     un-satisfies a satisfied path constraint. Endpoint view: every
     element whose input slack was non-negative keeps a non-negative
     input slack after one sweep in either direction. *)
  QCheck.Test.make ~name:"slack transfer preserves satisfied constraints"
    ~count:40
    QCheck.(triple (int_range 1 100_000) (int_range 1 4) bool)
    (fun (seed, phases, forward) ->
       let design, system =
         Hb_workload.Soup.random ~seed:(Int64.of_int seed) ~phases ()
       in
       let ctx = Hb_sta.Context.make ~design ~system () in
       let before = Hb_sta.Slacks.compute ctx in
       let _moved =
         Hb_sta.Algorithm1.transfer_step ctx
           (if forward then `Forward else `Backward)
       in
       let after = Hb_sta.Slacks.compute ctx in
       let ok = ref true in
       Array.iteri
         (fun e slack ->
            if Hb_util.Time.ge slack 0.0
            && not (Hb_util.Time.ge after.Hb_sta.Slacks.element_input_slack.(e)
                      (-.1e-6))
            then ok := false)
         before.Hb_sta.Slacks.element_input_slack;
       Array.iteri
         (fun e slack ->
            if Hb_util.Time.ge slack 0.0
            && not (Hb_util.Time.ge after.Hb_sta.Slacks.element_output_slack.(e)
                      (-.1e-6))
            then ok := false)
         before.Hb_sta.Slacks.element_output_slack;
       !ok)

let prop_verdict_witnessed_by_enumeration =
  (* When Algorithm 1 says Meets_timing, exact path enumeration at the
     final offsets finds no violated endpoint either. *)
  QCheck.Test.make ~name:"Meets_timing witnessed by enumeration" ~count:30
    QCheck.(pair (int_range 1 100_000) (int_range 1 3))
    (fun (seed, phases) ->
       let design, system =
         Hb_workload.Soup.random ~seed:(Int64.of_int seed) ~phases ()
       in
       let ctx = Hb_sta.Context.make ~design ~system () in
       match (Hb_sta.Algorithm1.run ctx).Hb_sta.Algorithm1.status with
       | Hb_sta.Algorithm1.Slow_paths -> true (* nothing claimed *)
       | Hb_sta.Algorithm1.Meets_timing ->
         let exact = Hb_sta.Reference.evaluate ctx in
         List.for_all
           (fun (_, slack) -> Hb_util.Time.is_positive slack)
           (enumerated_endpoints exact))

let prop_hbn_round_trip_preserves_analysis =
  (* Writing any soup to .hbn text and reading it back yields a design
     with the identical timing verdict and worst slack. *)
  QCheck.Test.make ~name:"hbn round trip preserves analysis" ~count:20
    QCheck.(pair (int_range 1 100_000) (int_range 1 3))
    (fun (seed, phases) ->
       let design, system =
         Hb_workload.Soup.random ~seed:(Int64.of_int seed) ~phases ()
       in
       let reparsed =
         Hb_netlist.Hbn_format.parse ~library:lib
           (Hb_netlist.Hbn_format.write design)
       in
       let worst d =
         let ctx = Hb_sta.Context.make ~design:d ~system () in
         (Hb_sta.Algorithm1.run ctx).Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst
       in
       Float.abs (worst design -. worst reparsed) < 1e-9)

(* Algorithm 2's claim: for nodes in too-slow paths the recorded ready
   times are the actual times. On an all-flip-flop design offsets are
   rigid, so "actual" is directly computable: launch edge + d_cz +
   accumulated worst gate delays. *)
let test_algorithm2_actual_ready_times () =
  let b = Hb_netlist.Builder.create ~name:"actual" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"clk" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:true;
  Hb_netlist.Builder.add_port b ~name:"din" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"ff1" ~cell:"dff"
    ~connections:[ ("d", "din"); ("ck", "clk"); ("q", "c0") ] ();
  for i = 0 to 2 do
    Hb_netlist.Builder.add_instance b ~name:(Printf.sprintf "g%d" i)
      ~cell:"buf_x1"
      ~connections:
        [ ("a", Printf.sprintf "c%d" i); ("y", Printf.sprintf "c%d" (i + 1)) ]
      ()
  done;
  Hb_netlist.Builder.add_instance b ~name:"ff2" ~cell:"dff"
    ~connections:[ ("d", "c3"); ("ck", "clk"); ("q", "qq") ] ();
  let design = Hb_netlist.Builder.freeze b in
  (* A period too small for the three buffers: the whole chain is slow. *)
  let system =
    Hb_clock.System.make ~overall_period:3.0
      [ Hb_clock.Waveform.make ~name:"clk" ~multiplier:1 ~rise:0.0 ~width:1.2 ]
  in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let _ = Hb_sta.Algorithm1.run ctx in
  let times = Hb_sta.Algorithm2.run ctx in
  (* Actual arrival at c1: launch (trailing edge at 1.2) + d_cz (1.2) +
     buf delay at c1's load; recorded times sit on the broken-open axis
     whose origin is the closure event of the trailing edge, so compare
     differences between consecutive chain nets instead of absolutes. *)
  let net name =
    match Hb_netlist.Design.find_net design name with
    | Some n -> n
    | None -> Alcotest.fail "net"
  in
  let buf_delay net_name =
    let cell = Hb_cell.Library.find_exn lib "buf_x1" in
    match Hb_cell.Cell.arc_between cell ~input:"a" ~output:"y" with
    | Some arc ->
      Hb_cell.Delay_model.worst arc.Hb_cell.Cell.delay
        ~load:
          (Hb_netlist.Design.net design (net net_name))
            .Hb_netlist.Design.load_capacitance
    | None -> Alcotest.fail "arc"
  in
  let ready name = times.Hb_sta.Algorithm2.ready.(net name) in
  Alcotest.(check (float 1e-6)) "c0->c1 increment is the buffer delay"
    (buf_delay "c1")
    (ready "c1" -. ready "c0");
  Alcotest.(check (float 1e-6)) "c1->c2 increment"
    (buf_delay "c2")
    (ready "c2" -. ready "c1");
  Alcotest.(check (float 1e-6)) "c2->c3 increment"
    (buf_delay "c3")
    (ready "c3" -. ready "c2")

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_random_pipelines_analyse; prop_hierarchy_equivalence;
        prop_soups_block_equals_enumeration; prop_soups_algorithms_terminate;
        prop_soups_passes_minimal; prop_transfer_monotone;
        prop_verdict_witnessed_by_enumeration;
        prop_hbn_round_trip_preserves_analysis ]
  in
  Alcotest.run "integration"
    [ ("table1",
       [ Alcotest.test_case "DES completes" `Quick test_des_analysis_completes;
         Alcotest.test_case "ALU meets timing" `Quick test_alu_meets_timing;
         Alcotest.test_case "SM1F = SM1H worst slack" `Quick
           test_sm1_hierarchy_preserves_worst_slack;
         Alcotest.test_case "size ordering" `Quick test_table1_shape ]);
      ("files",
       [ Alcotest.test_case "round trip analysis" `Quick test_file_round_trip_analysis ]);
      ("figure1",
       [ Alcotest.test_case "settling times" `Quick test_figure1_settling_times ]);
      ("cross-validation",
       [ Alcotest.test_case "ALU block = enumeration" `Quick
           test_block_vs_enumeration_alu;
         Alcotest.test_case "multifrequency" `Quick test_multifrequency_pipeline ]);
      ("redesign",
       [ Alcotest.test_case "DES improves" `Quick test_redesign_des_improves ]);
      ("algorithms",
       [ Alcotest.test_case "offsets witness verdict" `Quick
           test_algorithm1_offsets_witness_verdict;
         Alcotest.test_case "engine preserves state" `Quick
           test_engine_preserves_algorithm1_state;
         Alcotest.test_case "algorithm 2 actual ready times" `Quick
           test_algorithm2_actual_ready_times ]);
      ("properties", qsuite);
    ]
