(* Tests for hb_sta: control-cone tracing, element building, cluster
   extraction, pass minimisation, block slacks (numeric golden values),
   Algorithms 1 and 2, path tracing, baselines and hold checks. *)

let lib = Hb_cell.Library.default ()
let check_time = Alcotest.(check (float 1e-6))

let single_clock ?(period = 100.0) () =
  Hb_clock.System.make ~overall_period:period
    [ Hb_clock.Waveform.make ~name:"clk" ~multiplier:1 ~rise:0.0
        ~width:(0.4 *. period) ]

let builder name =
  let b = Hb_netlist.Builder.create ~name ~library:lib in
  b

let in_port b name = Hb_netlist.Builder.add_port b ~name
    ~direction:Hb_netlist.Design.Port_in ~is_clock:false

let out_port b name = Hb_netlist.Builder.add_port b ~name
    ~direction:Hb_netlist.Design.Port_out ~is_clock:false

let clock_port b name = Hb_netlist.Builder.add_port b ~name
    ~direction:Hb_netlist.Design.Port_in ~is_clock:true

let inst b name cell connections =
  Hb_netlist.Builder.add_instance b ~name ~cell ~connections ()

let inst_id design name =
  match Hb_netlist.Design.find_instance design name with
  | Some i -> i
  | None -> Alcotest.fail ("missing instance " ^ name)

(* Worst-case delay of a library cell arc at the load of a given net. *)
let cell_arc_delay design cell_name net_name =
  let cell = Hb_cell.Library.find_exn lib cell_name in
  let net =
    match Hb_netlist.Design.find_net design net_name with
    | Some n -> Hb_netlist.Design.net design n
    | None -> Alcotest.fail ("missing net " ^ net_name)
  in
  match Hb_cell.Cell.arcs_to cell ~output:"y" with
  | arc :: _ ->
    Hb_cell.Delay_model.worst arc.Hb_cell.Cell.delay
      ~load:net.Hb_netlist.Design.load_capacitance
  | [] -> Alcotest.fail "no arcs"

(* ------------------------------------------------------------------ *)
(* Control tracing                                                    *)
(* ------------------------------------------------------------------ *)

let test_control_direct () =
  let b = builder "c1" in
  clock_port b "clk";
  in_port b "d";
  inst b "ff" "dff" [ ("d", "d"); ("ck", "clk"); ("q", "q") ];
  let design = Hb_netlist.Builder.freeze b in
  let info = Hb_sta.Control.trace design ~inst:(inst_id design "ff") in
  Alcotest.(check string) "clock" "clk" info.Hb_sta.Control.clock;
  Alcotest.(check bool) "not inverted" false info.Hb_sta.Control.inverted;
  check_time "no delay" 0.0 info.Hb_sta.Control.control_delay;
  Alcotest.(check bool) "no enables" false info.Hb_sta.Control.has_enables

let test_control_inverted () =
  let b = builder "c2" in
  clock_port b "clk";
  in_port b "d";
  inst b "ci" "inv_x1" [ ("a", "clk"); ("y", "nclk") ];
  inst b "ff" "dff" [ ("d", "d"); ("ck", "nclk"); ("q", "q") ];
  let design = Hb_netlist.Builder.freeze b in
  let info = Hb_sta.Control.trace design ~inst:(inst_id design "ff") in
  Alcotest.(check bool) "inverted" true info.Hb_sta.Control.inverted;
  check_time "inv delay"
    (cell_arc_delay design "inv_x1" "nclk")
    info.Hb_sta.Control.control_delay

let test_control_buffer_chain_delay () =
  let b = builder "c3" in
  clock_port b "clk";
  in_port b "d";
  inst b "b1" "buf_x1" [ ("a", "clk"); ("y", "k1") ];
  inst b "b2" "buf_x1" [ ("a", "k1"); ("y", "k2") ];
  inst b "ff" "dff" [ ("d", "d"); ("ck", "k2"); ("q", "q") ];
  let design = Hb_netlist.Builder.freeze b in
  let info = Hb_sta.Control.trace design ~inst:(inst_id design "ff") in
  Alcotest.(check bool) "double buffer keeps sense" false
    info.Hb_sta.Control.inverted;
  check_time "sum of buffer delays"
    (cell_arc_delay design "buf_x1" "k1" +. cell_arc_delay design "buf_x1" "k2")
    info.Hb_sta.Control.control_delay

let test_control_gated_enable () =
  let b = builder "c4" in
  clock_port b "clk";
  in_port b "d";
  in_port b "en";
  inst b "g" "and2_x1" [ ("a", "clk"); ("b", "en"); ("y", "gck") ];
  inst b "l" "latch" [ ("d", "d"); ("ck", "gck"); ("q", "q") ];
  let design = Hb_netlist.Builder.freeze b in
  let info = Hb_sta.Control.trace design ~inst:(inst_id design "l") in
  Alcotest.(check bool) "has enables" true info.Hb_sta.Control.has_enables;
  Alcotest.(check bool) "not inverted through and" false
    info.Hb_sta.Control.inverted

let expect_control_error build =
  let b = builder "cerr" in
  build b;
  let design = Hb_netlist.Builder.freeze b in
  let sync = List.hd (Hb_netlist.Design.sync_instances design) in
  match Hb_sta.Control.trace design ~inst:sync with
  | exception Hb_sta.Control.Control_error _ -> ()
  | _ -> Alcotest.fail "expected Control_error"

let test_control_two_clocks_rejected () =
  expect_control_error (fun b ->
      clock_port b "ck1";
      clock_port b "ck2";
      in_port b "d";
      inst b "g" "and2_x1" [ ("a", "ck1"); ("b", "ck2"); ("y", "gck") ];
      inst b "ff" "dff" [ ("d", "d"); ("ck", "gck"); ("q", "q") ])

let test_control_mixed_sense_rejected () =
  expect_control_error (fun b ->
      clock_port b "clk";
      in_port b "d";
      inst b "i" "inv_x1" [ ("a", "clk"); ("y", "nclk") ];
      inst b "g" "and2_x1" [ ("a", "clk"); ("b", "nclk"); ("y", "gck") ];
      inst b "ff" "dff" [ ("d", "d"); ("ck", "gck"); ("q", "q") ])

let test_control_nonmonotonic_rejected () =
  expect_control_error (fun b ->
      clock_port b "clk";
      in_port b "d";
      in_port b "x";
      inst b "g" "xor2_x1" [ ("a", "clk"); ("b", "x"); ("y", "gck") ];
      inst b "ff" "dff" [ ("d", "d"); ("ck", "gck"); ("q", "q") ])

let test_control_no_clock_rejected () =
  expect_control_error (fun b ->
      in_port b "notclock";
      in_port b "d";
      inst b "ff" "dff" [ ("d", "d"); ("ck", "notclock"); ("q", "q") ])

(* ------------------------------------------------------------------ *)
(* Elements                                                           *)
(* ------------------------------------------------------------------ *)

let context_of ?config design system =
  Hb_sta.Context.make ~design ~system ?config ()

let test_elements_replication () =
  let b = builder "rep" in
  Hb_netlist.Builder.add_port b ~name:"fast"
    ~direction:Hb_netlist.Design.Port_in ~is_clock:true;
  in_port b "d";
  inst b "ff" "dff" [ ("d", "d"); ("ck", "fast"); ("q", "q") ];
  let design = Hb_netlist.Builder.freeze b in
  let system =
    Hb_clock.System.make ~overall_period:100.0
      [ Hb_clock.Waveform.make ~name:"fast" ~multiplier:4 ~rise:0.0 ~width:10.0 ]
  in
  let ctx = context_of design system in
  let elements = ctx.Hb_sta.Context.elements in
  let replicas =
    Hashtbl.find elements.Hb_sta.Elements.replicas_of_inst (inst_id design "ff")
  in
  Alcotest.(check int) "4 replicas" 4 (List.length replicas);
  (* Each replica is tied to its own trailing edge. *)
  List.iteri
    (fun pulse id ->
       let e = Hb_sta.Elements.element elements id in
       match e.Hb_sync.Element.closure_edge with
       | Some edge ->
         Alcotest.(check int) "pulse index" pulse edge.Hb_clock.Edge.pulse;
         Alcotest.(check bool) "trailing" true
           (edge.Hb_clock.Edge.polarity = Hb_clock.Edge.Trailing)
       | None -> Alcotest.fail "missing closure edge")
    replicas

let test_elements_latch_edges () =
  let b = builder "le" in
  clock_port b "clk";
  in_port b "d";
  inst b "l" "latch" [ ("d", "d"); ("ck", "clk"); ("q", "q") ];
  let design = Hb_netlist.Builder.freeze b in
  let ctx = context_of design (single_clock ()) in
  let elements = ctx.Hb_sta.Context.elements in
  let id =
    List.hd
      (Hashtbl.find elements.Hb_sta.Elements.replicas_of_inst
         (inst_id design "l"))
  in
  let e = Hb_sta.Elements.element elements id in
  (match e.Hb_sync.Element.assertion_edge, e.Hb_sync.Element.closure_edge with
   | Some a, Some c ->
     Alcotest.(check bool) "assert on leading" true
       (a.Hb_clock.Edge.polarity = Hb_clock.Edge.Leading);
     Alcotest.(check bool) "close on trailing" true
       (c.Hb_clock.Edge.polarity = Hb_clock.Edge.Trailing)
   | _ -> Alcotest.fail "missing edges")

let test_elements_inverted_latch_edges () =
  let b = builder "il" in
  clock_port b "clk";
  in_port b "d";
  inst b "i" "inv_x1" [ ("a", "clk"); ("y", "nclk") ];
  inst b "l" "latch" [ ("d", "d"); ("ck", "nclk"); ("q", "q") ];
  let design = Hb_netlist.Builder.freeze b in
  let ctx = context_of design (single_clock ()) in
  let elements = ctx.Hb_sta.Context.elements in
  let id =
    List.hd
      (Hashtbl.find elements.Hb_sta.Elements.replicas_of_inst
         (inst_id design "l"))
  in
  let e = Hb_sta.Elements.element elements id in
  (match e.Hb_sync.Element.assertion_edge, e.Hb_sync.Element.closure_edge with
   | Some a, Some c ->
     (* Transparent while the clock is low: opens at the trailing clock
        edge, closes at the next leading edge. *)
     Alcotest.(check bool) "assert on trailing" true
       (a.Hb_clock.Edge.polarity = Hb_clock.Edge.Trailing);
     Alcotest.(check bool) "close on leading" true
       (c.Hb_clock.Edge.polarity = Hb_clock.Edge.Leading)
   | _ -> Alcotest.fail "missing edges")

let test_elements_boundaries_and_enables () =
  let b = builder "be" in
  clock_port b "clk";
  in_port b "d";
  in_port b "en";
  out_port b "o";
  inst b "g" "and2_x1" [ ("a", "clk"); ("b", "en"); ("y", "gck") ];
  inst b "l" "latch" [ ("d", "d"); ("ck", "gck"); ("q", "lq") ];
  inst b "ob" "buf_x1" [ ("a", "lq"); ("y", "o") ];
  let design = Hb_netlist.Builder.freeze b in
  let ctx = context_of design (single_clock ()) in
  let elements = ctx.Hb_sta.Context.elements in
  (* 1 latch replica + 1 enable endpoint + 2 input boundaries (d, en) + 1
     output boundary = 5. *)
  Alcotest.(check int) "element count" 5 (Hb_sta.Elements.count elements);
  let labels =
    List.init (Hb_sta.Elements.count elements) (fun i ->
        (Hb_sta.Elements.element elements i).Hb_sync.Element.label)
  in
  Alcotest.(check bool) "enable endpoint present" true
    (List.mem "l.ck#0" labels);
  Alcotest.(check bool) "port boundaries present" true
    (List.mem "port d" labels && List.mem "port en" labels
     && List.mem "port o" labels)

let test_elements_unknown_clock_rejected () =
  let b = builder "uc" in
  clock_port b "mystery";
  in_port b "d";
  inst b "ff" "dff" [ ("d", "d"); ("ck", "mystery"); ("q", "q") ];
  let design = Hb_netlist.Builder.freeze b in
  match context_of design (single_clock ()) with
  | exception Hb_sta.Elements.Build_error _ -> ()
  | _ -> Alcotest.fail "expected Build_error for unknown clock"

(* ------------------------------------------------------------------ *)
(* Clusters                                                           *)
(* ------------------------------------------------------------------ *)

let ff_chain_design ?(gates = 1) () =
  let b = builder "chain" in
  clock_port b "clk";
  in_port b "din";
  inst b "ff1" "dff" [ ("d", "din"); ("ck", "clk"); ("q", "c0") ];
  for i = 0 to gates - 1 do
    inst b (Printf.sprintf "g%d" i) "inv_x1"
      [ ("a", Printf.sprintf "c%d" i); ("y", Printf.sprintf "c%d" (i + 1)) ]
  done;
  inst b "ff2" "dff"
    [ ("d", Printf.sprintf "c%d" gates); ("ck", "clk"); ("q", "qq") ];
  Hb_netlist.Builder.freeze b

let find_cluster_with_member ctx inst =
  let table = ctx.Hb_sta.Context.table in
  let found = ref None in
  Array.iter
    (fun (c : Hb_sta.Cluster.t) ->
       if List.mem inst c.Hb_sta.Cluster.members then found := Some c)
    table.Hb_sta.Cluster.clusters;
  match !found with
  | Some c -> c
  | None -> Alcotest.fail "no cluster contains the instance"

let test_cluster_extraction () =
  let design = ff_chain_design ~gates:2 () in
  let ctx = context_of design (single_clock ()) in
  let cluster = find_cluster_with_member ctx (inst_id design "g0") in
  Alcotest.(check int) "two gates in one cluster" 2
    (List.length cluster.Hb_sta.Cluster.members);
  Alcotest.(check int) "one input terminal" 1
    (Array.length cluster.Hb_sta.Cluster.inputs);
  Alcotest.(check int) "one output terminal" 1
    (Array.length cluster.Hb_sta.Cluster.outputs);
  Alcotest.(check int) "two arcs" 2 (Array.length cluster.Hb_sta.Cluster.arc_inst)

let test_cluster_cycle_rejected () =
  let b = builder "loop" in
  clock_port b "clk";
  in_port b "d";
  inst b "g1" "nand2_x1" [ ("a", "d"); ("b", "n2"); ("y", "n1") ];
  inst b "g2" "inv_x1" [ ("a", "n1"); ("y", "n2") ];
  inst b "ff" "dff" [ ("d", "n1"); ("ck", "clk"); ("q", "q") ];
  let design = Hb_netlist.Builder.freeze b in
  match context_of design (single_clock ()) with
  | exception Hb_sta.Cluster.Cycle_error _ -> ()
  | _ -> Alcotest.fail "expected Cycle_error"

let test_cluster_reachability () =
  let design = ff_chain_design ~gates:3 () in
  let ctx = context_of design (single_clock ()) in
  let cluster = find_cluster_with_member ctx (inst_id design "g0") in
  let marked = Bytes.create (Array.length cluster.Hb_sta.Cluster.nets) in
  let hits = Array.make (Array.length cluster.Hb_sta.Cluster.outputs) 0 in
  let reached =
    Hb_sta.Cluster.reachable_outputs cluster ~input_terminal_index:0 ~marked
      ~hits
  in
  Alcotest.(check (list int)) "input 0 reaches output 0" [ 0 ]
    (Array.to_list (Array.sub hits 0 reached))

let test_cluster_direct_wire () =
  (* FF feeding FF with no logic in between: a single-net cluster. *)
  let b = builder "wire" in
  clock_port b "clk";
  in_port b "d";
  inst b "ff1" "dff" [ ("d", "d"); ("ck", "clk"); ("q", "w") ];
  inst b "ff2" "dff" [ ("d", "w"); ("ck", "clk"); ("q", "q2") ];
  let design = Hb_netlist.Builder.freeze b in
  let ctx = context_of design (single_clock ()) in
  let table = ctx.Hb_sta.Context.table in
  let w =
    match Hb_netlist.Design.find_net design "w" with
    | Some n -> n
    | None -> Alcotest.fail "net w missing"
  in
  let cluster =
    table.Hb_sta.Cluster.clusters.(table.Hb_sta.Cluster.cluster_of_net.(w))
  in
  Alcotest.(check int) "no members" 0 (List.length cluster.Hb_sta.Cluster.members);
  Alcotest.(check int) "one input" 1 (Array.length cluster.Hb_sta.Cluster.inputs);
  Alcotest.(check int) "one output" 1 (Array.length cluster.Hb_sta.Cluster.outputs)

(* ------------------------------------------------------------------ *)
(* Passes                                                             *)
(* ------------------------------------------------------------------ *)

let test_passes_single_clock_one_pass () =
  let design = ff_chain_design () in
  let ctx = context_of design (single_clock ()) in
  Array.iter
    (fun (plan : Hb_sta.Passes.plan) ->
       Alcotest.(check bool) "at most one pass" true
         (List.length plan.Hb_sta.Passes.cuts <= 1))
    ctx.Hb_sta.Context.passes.Hb_sta.Passes.plans

let test_passes_same_edge_full_period () =
  let design = ff_chain_design () in
  let system = single_clock () in
  let ctx = context_of design system in
  let passes = ctx.Hb_sta.Context.passes in
  let trailing = Hb_clock.Edge.trailing ~clock:"clk" ~pulse:0 in
  let a = Hb_sta.Passes.assertion_node passes trailing in
  let c = Hb_sta.Passes.closure_node passes trailing in
  let cluster = find_cluster_with_member ctx (inst_id design "g0") in
  let plan = passes.Hb_sta.Passes.plans.(cluster.Hb_sta.Cluster.id) in
  let cut = List.hd plan.Hb_sta.Passes.cuts in
  let d =
    Hb_sta.Passes.linear_time passes ~cut ~node:c
    -. Hb_sta.Passes.linear_time passes ~cut ~node:a
  in
  check_time "same-edge ideal constraint is one period" 100.0 d

let test_passes_figure1 () =
  let design, system = Hb_workload.Figures.figure1 () in
  let ctx = context_of design system in
  (* The shared-cone cluster needs 2 passes where per-edge accounting
     needs 4. *)
  let best = ref (0, 0) in
  List.iter
    (fun (_, m, n) -> if n > snd !best then best := (m, n))
    (Hb_sta.Passes.cluster_settling_times ctx.Hb_sta.Context.passes
       ~table:ctx.Hb_sta.Context.table);
  Alcotest.(check (pair int int)) "figure 1 cluster passes" (2, 4) !best

(* ------------------------------------------------------------------ *)
(* Numeric slacks                                                     *)
(* ------------------------------------------------------------------ *)

let run_algorithm1 design system =
  let ctx = context_of design system in
  let outcome = Hb_sta.Algorithm1.run ctx in
  (ctx, outcome)

(* Worst data-input slack across the replicas of one named instance. *)
let endpoint_slack ctx (slacks : Hb_sta.Slacks.t) design name =
  let replicas =
    Hashtbl.find ctx.Hb_sta.Context.elements.Hb_sta.Elements.replicas_of_inst
      (inst_id design name)
  in
  List.fold_left
    (fun acc e ->
       Stdlib.min acc slacks.Hb_sta.Slacks.element_input_slack.(e))
    infinity replicas

let test_ff_chain_golden_slack () =
  let design = ff_chain_design ~gates:1 () in
  let ctx, outcome = run_algorithm1 design (single_clock ()) in
  (* Slack at ff2 = T - d_cz(ff) - inv delay - setup(ff). *)
  let inv_delay = cell_arc_delay design "inv_x1" "c1" in
  let expected = 100.0 -. 1.2 -. inv_delay -. 0.8 in
  check_time "golden slack" expected
    (endpoint_slack ctx outcome.Hb_sta.Algorithm1.final design "ff2");
  Alcotest.(check bool) "meets timing" true
    (outcome.Hb_sta.Algorithm1.status = Hb_sta.Algorithm1.Meets_timing)

let test_ff_chain_too_slow () =
  let design = ff_chain_design ~gates:1 () in
  (* Period short enough that setup + d_cz + delay do not fit. *)
  let ctx, outcome = run_algorithm1 design (single_clock ~period:2.0 ()) in
  Alcotest.(check bool) "slow" true
    (outcome.Hb_sta.Algorithm1.status = Hb_sta.Algorithm1.Slow_paths);
  let inv_delay = cell_arc_delay design "inv_x1" "c1" in
  let expected = 2.0 -. 1.2 -. inv_delay -. 0.8 in
  check_time "negative golden slack" expected
    (endpoint_slack ctx outcome.Hb_sta.Algorithm1.final design "ff2")

(* Two-phase structure where the first-stage logic is slower than the
   phase spacing: transparent latches borrow time and pass; edge
   flip-flops on the same clocks fail. *)
let borrowing_design ~latch_cell =
  let b = builder ("borrow_" ^ latch_cell) in
  clock_port b "phi1";
  clock_port b "phi2";
  in_port b "din";
  inst b "r1" latch_cell [ ("d", "din"); ("ck", "phi1"); ("q", "s0") ];
  (* A chain of 18 buffers: roughly 18 * 0.745 = 13.4 ns. *)
  for i = 0 to 17 do
    inst b (Printf.sprintf "g%d" i) "buf_x1"
      [ ("a", Printf.sprintf "s%d" i); ("y", Printf.sprintf "s%d" (i + 1)) ]
  done;
  inst b "r2" latch_cell [ ("d", "s18"); ("ck", "phi2"); ("q", "t0") ];
  inst b "g_out" "buf_x1" [ ("a", "t0"); ("y", "t1") ];
  inst b "r3" latch_cell [ ("d", "t1"); ("ck", "phi1"); ("q", "u0") ];
  Hb_netlist.Builder.freeze b

let borrowing_clocks () =
  (* Tight: phi1 closes at 10, phi2 spans 12..22, period 24. The 13.4 ns
     chain cannot fit between edge-triggered captures (12 ns apart) but
     fits a full transparent cycle. *)
  Hb_clock.System.make ~overall_period:24.0
    [ Hb_clock.Waveform.make ~name:"phi1" ~multiplier:1 ~rise:0.0 ~width:10.0;
      Hb_clock.Waveform.make ~name:"phi2" ~multiplier:1 ~rise:12.0 ~width:10.0 ]

let test_latch_borrowing_passes () =
  let design = borrowing_design ~latch_cell:"latch" in
  let _, outcome = run_algorithm1 design (borrowing_clocks ()) in
  Alcotest.(check bool) "latches borrow and meet timing" true
    (outcome.Hb_sta.Algorithm1.status = Hb_sta.Algorithm1.Meets_timing)

let test_ff_same_structure_fails () =
  let design = borrowing_design ~latch_cell:"dff" in
  let _, outcome = run_algorithm1 design (borrowing_clocks ()) in
  Alcotest.(check bool) "flip-flops cannot borrow" true
    (outcome.Hb_sta.Algorithm1.status = Hb_sta.Algorithm1.Slow_paths)

let test_cyclic_paths_too_slow () =
  (* A latch ring whose loop delay exceeds the overall period: the paths
     forming the directed cycle are too slow (second condition of the
     paper's proposition), whatever the offsets. *)
  let design, system = Hb_workload.Pipelines.latch_ring ~period:20.0 ~gates:40 () in
  let ctx = context_of design system in
  let outcome = Hb_sta.Algorithm1.run ctx in
  Alcotest.(check bool) "ring too slow" true
    (outcome.Hb_sta.Algorithm1.status = Hb_sta.Algorithm1.Slow_paths)

let test_meets_timing_when_slow_ring_relaxed () =
  let design, system = Hb_workload.Pipelines.latch_ring ~gates:40 () in
  let ctx = context_of design system in
  let outcome = Hb_sta.Algorithm1.run ctx in
  Alcotest.(check bool) "ring fits at 100ns" true
    (outcome.Hb_sta.Algorithm1.status = Hb_sta.Algorithm1.Meets_timing)

let test_multirate_nearest_closure () =
  (* FF on a 1x clock feeding an FF on a 2x clock of the same phase:
     the capture happens at the next fast trailing edge, half a period
     away. *)
  let b = builder "mr" in
  clock_port b "slow";
  clock_port b "fast";
  in_port b "d";
  inst b "ff1" "dff" [ ("d", "d"); ("ck", "slow"); ("q", "m0") ];
  inst b "g" "inv_x1" [ ("a", "m0"); ("y", "m1") ];
  inst b "ff2" "dff" [ ("d", "m1"); ("ck", "fast"); ("q", "m2") ];
  let design = Hb_netlist.Builder.freeze b in
  let system =
    Hb_clock.System.make ~overall_period:100.0
      [ Hb_clock.Waveform.make ~name:"slow" ~multiplier:1 ~rise:0.0 ~width:40.0;
        Hb_clock.Waveform.make ~name:"fast" ~multiplier:2 ~rise:0.0 ~width:40.0 ]
  in
  let ctx, outcome = run_algorithm1 design system in
  (* Launch at slow trailing (40); next fast trailing is at 90: D = 50. *)
  let inv_delay = cell_arc_delay design "inv_x1" "m1" in
  let expected = 50.0 -. 1.2 -. inv_delay -. 0.8 in
  check_time "nearest closure wins" expected
    (endpoint_slack ctx outcome.Hb_sta.Algorithm1.final design "ff2")

(* ------------------------------------------------------------------ *)
(* Rise/fall separation                                               *)
(* ------------------------------------------------------------------ *)

let rise_fall_config =
  { Hb_sta.Config.default with Hb_sta.Config.rise_fall = true }

(* Exact arrival through two cascaded inverters with asymmetric
   rise/fall: polarities alternate, so the worst endpoint arrival is
   max(f1 + r2, r1 + f2) rather than the scalar r1 + r2. *)
let test_rise_fall_inverter_chain () =
  let design = ff_chain_design ~gates:2 () in
  let arc_delays net_name =
    let cell = Hb_cell.Library.find_exn lib "inv_x1" in
    let net =
      match Hb_netlist.Design.find_net design net_name with
      | Some n -> Hb_netlist.Design.net design n
      | None -> Alcotest.fail "net"
    in
    let load = net.Hb_netlist.Design.load_capacitance in
    match Hb_cell.Cell.arc_between cell ~input:"a" ~output:"y" with
    | Some arc ->
      ( Hb_cell.Delay_model.eval_arc
          arc.Hb_cell.Cell.delay.Hb_cell.Delay_model.rise ~load,
        Hb_cell.Delay_model.eval_arc
          arc.Hb_cell.Cell.delay.Hb_cell.Delay_model.fall ~load )
    | None -> Alcotest.fail "arc"
  in
  let r1, f1 = arc_delays "c1" in
  let r2, f2 = arc_delays "c2" in
  let ctx = context_of ~config:rise_fall_config design (single_clock ()) in
  let outcome = Hb_sta.Algorithm1.run ctx in
  let expected_delay = Stdlib.max (f1 +. r2) (r1 +. f2) in
  let expected = 100.0 -. 1.2 -. expected_delay -. 0.8 in
  check_time "rise/fall exact slack" expected
    (endpoint_slack ctx outcome.Hb_sta.Algorithm1.final design "ff2");
  (* The scalar model is strictly more pessimistic here. *)
  let scalar_ctx = context_of design (single_clock ()) in
  let scalar = Hb_sta.Algorithm1.run scalar_ctx in
  Alcotest.(check bool) "scalar is more pessimistic" true
    (endpoint_slack scalar_ctx scalar.Hb_sta.Algorithm1.final design "ff2"
     < expected)

let test_rise_fall_never_more_pessimistic () =
  List.iter
    (fun seed ->
       let design, system =
         Hb_workload.Pipelines.two_phase ~seed:(Int64.of_int seed) ~width:4
           ~stages:3 ~gates_per_stage:15 ()
       in
       let scalar =
         let ctx = context_of design system in
         (Hb_sta.Slacks.compute ctx).Hb_sta.Slacks.worst
       in
       let rf =
         let ctx = context_of ~config:rise_fall_config design system in
         (Hb_sta.Slacks.compute ctx).Hb_sta.Slacks.worst
       in
       Alcotest.(check bool)
         (Printf.sprintf "seed %d: rf slack >= scalar slack" seed)
         true
         (Hb_util.Time.ge rf scalar))
    [ 1; 2; 3; 4; 5 ]

let test_rise_fall_critical_path_traces () =
  let design = ff_chain_design ~gates:3 () in
  let ctx = context_of ~config:rise_fall_config design (single_clock ()) in
  let _ = Hb_sta.Algorithm1.run ctx in
  let endpoint =
    List.hd
      (Hashtbl.find ctx.Hb_sta.Context.elements.Hb_sta.Elements.replicas_of_inst
         (inst_id design "ff2"))
  in
  match Hb_sta.Paths.critical_path ctx ~endpoint with
  | Some path ->
    Alcotest.(check int) "hop count" 4 (List.length path.Hb_sta.Paths.hops);
    let times = List.map (fun h -> h.Hb_sta.Paths.at) path.Hb_sta.Paths.hops in
    Alcotest.(check (list (float 1e-9))) "monotone arrivals"
      (List.sort compare times) times
  | None -> Alcotest.fail "expected a path"

(* Non-unate gates fall back to worst-of-both-polarities inputs. *)
let test_rise_fall_non_unate_safe () =
  let b = builder "xorchain" in
  clock_port b "clk";
  in_port b "d";
  inst b "ff1" "dff" [ ("d", "d"); ("ck", "clk"); ("q", "x0") ];
  inst b "g1" "inv_x1" [ ("a", "x0"); ("y", "x1") ];
  inst b "g2" "xor2_x1" [ ("a", "x1"); ("b", "x0"); ("y", "x2") ];
  inst b "ff2" "dff" [ ("d", "x2"); ("ck", "clk"); ("q", "x3") ];
  let design = Hb_netlist.Builder.freeze b in
  let rf_ctx = context_of ~config:rise_fall_config design (single_clock ()) in
  let scalar_ctx = context_of design (single_clock ()) in
  let rf = Hb_sta.Slacks.compute rf_ctx in
  let scalar = Hb_sta.Slacks.compute scalar_ctx in
  Alcotest.(check bool) "rf >= scalar through xor" true
    (Hb_util.Time.ge
       (endpoint_slack rf_ctx rf design "ff2")
       (endpoint_slack scalar_ctx scalar design "ff2"))

let test_complementary_outputs () =
  (* A dff2 asserts q and qb at the same instant; both downstream cones
     get launched, and the element has two cluster-input terminals. *)
  let b = builder "comp" in
  clock_port b "clk";
  in_port b "d";
  inst b "ff" "dff2" [ ("d", "d"); ("ck", "clk"); ("q", "t"); ("qb", "tb") ];
  inst b "g1" "inv_x1" [ ("a", "t"); ("y", "u") ];
  inst b "g2" "buf_x1" [ ("a", "tb"); ("y", "ub") ];
  inst b "ff2" "dff" [ ("d", "u"); ("ck", "clk"); ("q", "v") ];
  inst b "ff3" "dff" [ ("d", "ub"); ("ck", "clk"); ("q", "vb") ];
  let design = Hb_netlist.Builder.freeze b in
  let ctx = context_of design (single_clock ()) in
  let elements = ctx.Hb_sta.Context.elements in
  let ff_element =
    List.hd
      (Hashtbl.find elements.Hb_sta.Elements.replicas_of_inst
         (inst_id design "ff"))
  in
  Alcotest.(check int) "drives two nets" 2
    (List.length elements.Hb_sta.Elements.drives.(ff_element));
  let outcome = Hb_sta.Algorithm1.run ctx in
  (* Both capture flops are constrained. *)
  Alcotest.(check bool) "ff2 endpoint constrained" true
    (Hb_util.Time.is_finite
       (endpoint_slack ctx outcome.Hb_sta.Algorithm1.final design "ff2"));
  Alcotest.(check bool) "ff3 endpoint constrained" true
    (Hb_util.Time.is_finite
       (endpoint_slack ctx outcome.Hb_sta.Algorithm1.final design "ff3"))

(* ------------------------------------------------------------------ *)
(* Algorithm 2                                                        *)
(* ------------------------------------------------------------------ *)

let test_algorithm2_brackets () =
  let design = ff_chain_design ~gates:3 () in
  let system = single_clock () in
  let ctx = context_of design system in
  let _ = Hb_sta.Algorithm1.run ctx in
  let times = Hb_sta.Algorithm2.run ctx in
  (* Fast design: every constrained net has ready <= required. *)
  Array.iteri
    (fun net ready ->
       let required = times.Hb_sta.Algorithm2.required.(net) in
       if Float.is_finite ready && Float.is_finite required then
         Alcotest.(check bool)
           (Printf.sprintf "net %d bracketed" net)
           true
           (Hb_util.Time.le ready required))
    times.Hb_sta.Algorithm2.ready;
  Alcotest.(check int) "no slow modules" 0
    (List.length (Hb_sta.Algorithm2.module_constraints ctx times))

let test_algorithm2_slow_modules () =
  let design = ff_chain_design ~gates:3 () in
  let system = single_clock ~period:3.0 () in
  let ctx = context_of design system in
  let _ = Hb_sta.Algorithm1.run ctx in
  let times = Hb_sta.Algorithm2.run ctx in
  let constraints = Hb_sta.Algorithm2.module_constraints ctx times in
  Alcotest.(check int) "all three gates constrained" 3 (List.length constraints);
  (* Sorted worst-first. *)
  let slacks = List.map (fun c -> c.Hb_sta.Algorithm2.slack) constraints in
  Alcotest.(check (list (float 1e-9))) "ascending slack order"
    (List.sort compare slacks) slacks;
  List.iter
    (fun (c : Hb_sta.Algorithm2.module_constraint) ->
       Alcotest.(check bool) "has ready times" true
         (c.Hb_sta.Algorithm2.input_ready <> []);
       Alcotest.(check bool) "has required times" true
         (c.Hb_sta.Algorithm2.output_required <> []))
    constraints

(* ------------------------------------------------------------------ *)
(* Paths                                                              *)
(* ------------------------------------------------------------------ *)

let test_critical_path_structure () =
  let design = ff_chain_design ~gates:3 () in
  let ctx = context_of design (single_clock ()) in
  let _ = Hb_sta.Algorithm1.run ctx in
  let endpoint =
    List.hd
      (Hashtbl.find ctx.Hb_sta.Context.elements.Hb_sta.Elements.replicas_of_inst
         (inst_id design "ff2"))
  in
  match Hb_sta.Paths.critical_path ctx ~endpoint with
  | Some path ->
    let elements = ctx.Hb_sta.Context.elements in
    let start = Hb_sta.Elements.element elements path.Hb_sta.Paths.start_element in
    let finish = Hb_sta.Elements.element elements path.Hb_sta.Paths.end_element in
    Alcotest.(check string) "starts at ff1" "ff1#0" start.Hb_sync.Element.label;
    Alcotest.(check string) "ends at ff2" "ff2#0" finish.Hb_sync.Element.label;
    (* launch net + 3 gate hops *)
    Alcotest.(check int) "hop count" 4 (List.length path.Hb_sta.Paths.hops);
    (* Arrival times increase along the path. *)
    let times = List.map (fun h -> h.Hb_sta.Paths.at) path.Hb_sta.Paths.hops in
    Alcotest.(check (list (float 1e-9))) "monotone arrivals"
      (List.sort compare times) times
  | None -> Alcotest.fail "expected a path"

let test_slow_paths_only_negative () =
  let design = ff_chain_design ~gates:3 () in
  let ctx = context_of design (single_clock ()) in
  let outcome = Hb_sta.Algorithm1.run ctx in
  Alcotest.(check int) "no slow paths when timing met" 0
    (List.length
       (Hb_sta.Paths.slow_paths ctx outcome.Hb_sta.Algorithm1.final ~limit:10))

let test_slow_paths_found_when_slow () =
  let design = ff_chain_design ~gates:3 () in
  let ctx = context_of design (single_clock ~period:3.0 ()) in
  let outcome = Hb_sta.Algorithm1.run ctx in
  let slow = Hb_sta.Paths.slow_paths ctx outcome.Hb_sta.Algorithm1.final ~limit:10 in
  Alcotest.(check bool) "at least one slow path" true (List.length slow >= 1);
  List.iter
    (fun (p : Hb_sta.Paths.path) ->
       Alcotest.(check bool) "negative slack" true
         (Hb_util.Time.le p.Hb_sta.Paths.slack 0.0))
    slow

(* ------------------------------------------------------------------ *)
(* Baselines                                                          *)
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

let test_block_matches_enumeration () =
  List.iter
    (fun (design, system) ->
       let ctx = context_of design system in
       let block = Hb_sta.Slacks.compute ctx in
       let exact = Hb_sta.Reference.evaluate ctx in
       check_time "worst slacks agree" exact.Hb_sta.Reference.worst_slack
         (Array.fold_left
            (fun acc s -> if Hb_util.Time.is_finite s then Stdlib.min acc s else acc)
            infinity block.Hb_sta.Slacks.element_input_slack);
       (* Per-endpoint agreement. *)
       List.iter
         (fun (element, slack) ->
            check_time
              (Printf.sprintf "endpoint %d" element)
              slack
              block.Hb_sta.Slacks.element_input_slack.(element))
         (enumerated_endpoints exact))
    [ (fun () -> Hb_workload.Figures.figure1 ()) ();
      (fun () ->
         Hb_workload.Pipelines.two_phase ~width:3 ~stages:3
           ~gates_per_stage:12 ()) ();
      (fun () -> (ff_chain_design ~gates:4 (), single_clock ())) ();
    ]

let test_settling_minimized_never_worse () =
  List.iter
    (fun (design, system) ->
       let ctx = context_of design system in
       let passes = ctx.Hb_sta.Context.passes in
       let table = ctx.Hb_sta.Context.table in
       let s = Hb_sta.Passes.settling_times passes ~table in
       Alcotest.(check bool) "minimized <= naive" true
         (s.Hb_sta.Passes.minimized_passes <= s.Hb_sta.Passes.naive_settling_times);
       Alcotest.(check (pair int int)) "totals = per-cluster sums"
         (List.fold_left
            (fun (m, n) (_, m', n') -> (m + m', n + n'))
            (0, 0)
            (Hb_sta.Passes.cluster_settling_times passes ~table))
         (s.Hb_sta.Passes.minimized_passes, s.Hb_sta.Passes.naive_settling_times))
    [ Hb_workload.Figures.figure1 ();
      Hb_workload.Pipelines.two_phase ~width:4 ~stages:4 ~gates_per_stage:20 ();
      Hb_workload.Chips.sm1f ();
    ]

(* ------------------------------------------------------------------ *)
(* Naive flat-graph reference evaluator                               *)
(* ------------------------------------------------------------------ *)

let test_reference_ff_chain_golden () =
  let design = ff_chain_design ~gates:1 () in
  let ctx, _ = run_algorithm1 design (single_clock ()) in
  let verdict = Hb_sta.Reference.evaluate ctx in
  Alcotest.(check bool) "not truncated" false
    verdict.Hb_sta.Reference.truncated;
  let inv_delay = cell_arc_delay design "inv_x1" "c1" in
  let expected = 100.0 -. 1.2 -. inv_delay -. 0.8 in
  let replicas =
    Hashtbl.find ctx.Hb_sta.Context.elements.Hb_sta.Elements.replicas_of_inst
      (inst_id design "ff2")
  in
  let slack =
    List.fold_left
      (fun acc e ->
         Stdlib.min acc verdict.Hb_sta.Reference.element_input_slack.(e))
      infinity replicas
  in
  check_time "oracle golden slack" expected slack;
  Alcotest.(check bool) "oracle meets timing" true
    (verdict.Hb_sta.Reference.status = `Meets_timing)

let test_reference_too_slow_golden () =
  let design = ff_chain_design ~gates:1 () in
  let ctx, _ = run_algorithm1 design (single_clock ~period:2.0 ()) in
  let verdict = Hb_sta.Reference.evaluate ctx in
  let inv_delay = cell_arc_delay design "inv_x1" "c1" in
  let expected = 2.0 -. 1.2 -. inv_delay -. 0.8 in
  check_time "oracle negative golden slack" expected
    verdict.Hb_sta.Reference.worst_slack;
  Alcotest.(check bool) "oracle finds slow paths" true
    (verdict.Hb_sta.Reference.status = `Slow_paths)

(* On whole designs, the oracle must agree with the block engine at the
   settled offsets — worst slack, both per-element slack arrays, and
   the verdict. *)
let test_reference_matches_block () =
  (* Infinite slacks (unconstrained elements) must match bit-for-bit;
     finite ones within the usual tolerance. *)
  let close a b =
    Float.compare a b = 0
    || (Hb_util.Time.is_finite a
        && Hb_util.Time.is_finite b
        && Float.abs (a -. b) <= 1e-6)
  in
  let check_close name a b =
    if not (close a b) then
      Alcotest.failf "%s: engine %h vs oracle %h" name a b
  in
  List.iter
    (fun (design, system) ->
       let ctx, outcome = run_algorithm1 design system in
       let block = outcome.Hb_sta.Algorithm1.final in
       let verdict = Hb_sta.Reference.evaluate ctx in
       Alcotest.(check bool) "not truncated" false
         verdict.Hb_sta.Reference.truncated;
       check_time "worst agrees" block.Hb_sta.Slacks.worst
         verdict.Hb_sta.Reference.worst_slack;
       Alcotest.(check bool) "status agrees"
         (Hb_sta.Slacks.all_positive block)
         (verdict.Hb_sta.Reference.status = `Meets_timing);
       Array.iteri
         (fun e s ->
            check_close
              (Printf.sprintf "input slack %d" e)
              s
              verdict.Hb_sta.Reference.element_input_slack.(e))
         block.Hb_sta.Slacks.element_input_slack;
       Array.iteri
         (fun e s ->
            check_close
              (Printf.sprintf "output slack %d" e)
              s
              verdict.Hb_sta.Reference.element_output_slack.(e))
         block.Hb_sta.Slacks.element_output_slack)
    [ Hb_workload.Figures.figure1 ();
      Hb_workload.Pipelines.two_phase ~width:3 ~stages:3 ~gates_per_stage:12 ();
      (ff_chain_design ~gates:4 (), single_clock ());
    ]

(* [Reference.paths] folds every path as [Reference.evaluate] does, so at
   each endpoint of a catalog chip its worst path's slack is evaluate's
   input slack, bit for bit. DES is left out: it has over 200M paths,
   far past any test budget. Endpoints with more than 20k paths are
   skipped. *)
let test_reference_paths_match_evaluate () =
  List.iter
    (fun name ->
       let design, system = (Option.get (Hb_workload.Catalog.find name)) () in
       let ctx, _ = run_algorithm1 design system in
       let verdict = Hb_sta.Reference.evaluate ~max_paths:4_000_000 ctx in
       Alcotest.(check bool) (name ^ ": not truncated") false
         verdict.Hb_sta.Reference.truncated;
       let graph = Hb_sta.Reference.graph ctx in
       for endpoint = 0 to Hb_sta.Elements.count ctx.Hb_sta.Context.elements - 1 do
         match Hb_sta.Reference.paths ~max_paths:20_000 graph ~endpoint with
         | exception Hb_sta.Reference.Budget_exhausted -> ()
         | paths ->
           let worst =
             match paths with
             | [] -> infinity
             | p :: _ -> p.Hb_sta.Paths.slack
           in
           Alcotest.(check string)
             (Printf.sprintf "%s endpoint %d" name endpoint)
             (Printf.sprintf "%h"
                verdict.Hb_sta.Reference.element_input_slack.(endpoint))
             (Printf.sprintf "%h" worst)
       done)
    [ "alu"; "sm1f"; "sm1h"; "dsp"; "figure1"; "pipeline"; "ring" ]

(* ------------------------------------------------------------------ *)
(* Hold checks                                                        *)
(* ------------------------------------------------------------------ *)

let test_hold_clean_designs () =
  List.iter
    (fun (design, system) ->
       let ctx = context_of design system in
       Alcotest.(check int) "no hold violations" 0
         (List.length (Hb_sta.Holdcheck.check ctx)))
    [ Hb_workload.Figures.figure1 ();
      Hb_workload.Pipelines.two_phase ~width:4 ~stages:3 ~gates_per_stage:15 ();
    ]

let test_hold_violation_injected () =
  (* A primary input asserted 30 ns before its reference edge feeding a
     primary output required at that same edge: the data arrives far more
     than one period before closure. *)
  let b = builder "hold" in
  clock_port b "clk";
  in_port b "early";
  out_port b "late";
  inst b "g" "buf_x1" [ ("a", "early"); ("y", "late") ];
  let design = Hb_netlist.Builder.freeze b in
  let config =
    { Hb_sta.Config.default with
      Hb_sta.Config.port_overrides =
        [ ( "early",
            { Hb_sta.Config.edge = Hb_clock.Edge.leading ~clock:"clk" ~pulse:0;
              offset = -30.0 } ) ];
    }
  in
  let ctx = context_of ~config design (single_clock ()) in
  let violations = Hb_sta.Holdcheck.check ctx in
  Alcotest.(check int) "one violation" 1 (List.length violations);
  let v = List.hd violations in
  Alcotest.(check string) "at the output port" "port late" v.Hb_sta.Holdcheck.label

(* Slow FF feeding a fast FF, the fast clock at four times the rate. *)
let multirate_hold_design () =
  let b = builder "mrh" in
  clock_port b "slow";
  clock_port b "fast";
  in_port b "d";
  inst b "ff1" "dff" [ ("d", "d"); ("ck", "slow"); ("q", "h0") ];
  inst b "g" "buf_x1" [ ("a", "h0"); ("y", "h1") ];
  inst b "ff2" "dff" [ ("d", "h1"); ("ck", "fast"); ("q", "h2") ];
  let design = Hb_netlist.Builder.freeze b in
  let system =
    Hb_clock.System.make ~overall_period:100.0
      [ Hb_clock.Waveform.make ~name:"slow" ~multiplier:1 ~rise:0.0 ~width:40.0;
        Hb_clock.Waveform.make ~name:"fast" ~multiplier:4 ~rise:0.0 ~width:10.0 ]
  in
  (design, system)

(* Data from a port into a flip-flop on each clock of
   [multirate_hold_design]: endpoints whose own periods differ. *)
let multirate_port_design () =
  let _, system = multirate_hold_design () in
  let b = builder "mrp" in
  clock_port b "slow";
  clock_port b "fast";
  in_port b "d";
  inst b "g1" "buf_x1" [ ("a", "d"); ("y", "n1") ];
  inst b "ff1" "dff" [ ("d", "n1"); ("ck", "fast"); ("q", "q1") ];
  inst b "g2" "buf_x1" [ ("a", "d"); ("y", "n2") ];
  inst b "ff2" "dff" [ ("d", "n2"); ("ck", "slow"); ("q", "q2") ];
  (Hb_netlist.Builder.freeze b, system)

let test_hold_multirate_no_false_positive () =
  (* Each launch pairs with the next fast closure only; later replicas
     must not flag hold violations. *)
  let design, system = multirate_hold_design () in
  let ctx = context_of design system in
  Alcotest.(check int) "no false hold violations" 0
    (List.length (Hb_sta.Holdcheck.check ctx))

(* The hold check as first written, kept as the differential reference:
   a graph walk per input for reachability, a fresh grouping table per
   input, and edge times and endpoint periods looked up per pair. *)
let reference_hold (ctx : Hb_sta.Context.t) =
  let elements = ctx.Hb_sta.Context.elements in
  let system = ctx.Hb_sta.Context.system in
  let overall = system.Hb_clock.System.overall_period in
  let element = Hb_sta.Elements.element elements in
  let endpoint_period (e : Hb_sync.Element.t) =
    match e.Hb_sync.Element.closure_edge with
    | None -> overall
    | Some edge ->
      if Hb_sync.Element.is_boundary e then overall
      else
        (match Hb_clock.System.find system edge.Hb_clock.Edge.clock with
         | Some w -> Hb_clock.Waveform.own_period w ~overall_period:overall
         | None -> overall)
  in
  let ideal_constraint ~assertion_edge ~closure_edge =
    let t_a = Hb_clock.System.edge_time system assertion_edge in
    let t_c = Hb_clock.System.edge_time system closure_edge in
    let delta = Hb_util.Time.modulo (t_c -. t_a) ~period:overall in
    if Hb_util.Time.le delta 0.0 then overall else delta
  in
  let reachable (cluster : Hb_sta.Cluster.t) source =
    let marked = Array.make (Array.length cluster.Hb_sta.Cluster.nets) false in
    let rec walk net =
      if not marked.(net) then begin
        marked.(net) <- true;
        Hb_sta.Cluster.iter_succ cluster net ~f:(fun i ->
            walk cluster.Hb_sta.Cluster.arc_to.(i))
      end
    in
    walk source;
    List.filter
      (fun i ->
         marked.(cluster.Hb_sta.Cluster.outputs.(i).Hb_sta.Cluster.net))
      (List.init (Array.length cluster.Hb_sta.Cluster.outputs) Fun.id)
  in
  let min_delays (cluster : Hb_sta.Cluster.t) source =
    let dmin =
      Array.make (Array.length cluster.Hb_sta.Cluster.nets) Float.infinity
    in
    dmin.(source) <- 0.0;
    Array.iter
      (fun net ->
         if Float.is_finite dmin.(net) then
           Hb_sta.Cluster.iter_succ cluster net ~f:(fun j ->
               let to_net = cluster.Hb_sta.Cluster.arc_to.(j) in
               let t = dmin.(net) +. cluster.Hb_sta.Cluster.arc_dmin.(j) in
               if t < dmin.(to_net) then dmin.(to_net) <- t))
      cluster.Hb_sta.Cluster.topo;
    dmin
  in
  let worst = Hashtbl.create 32 in
  Array.iter
    (fun (cluster : Hb_sta.Cluster.t) ->
       Array.iter
         (fun (input : Hb_sta.Cluster.terminal) ->
            let source = element input.Hb_sta.Cluster.element in
            match source.Hb_sync.Element.assertion_edge with
            | None -> ()
            | Some assertion_edge ->
              let dmin = min_delays cluster input.Hb_sta.Cluster.net in
              let o_x = Hb_sync.Element.assertion_offset source in
              let nearest = Hashtbl.create 8 in
              List.iter
                (fun output_index ->
                   let output = cluster.Hb_sta.Cluster.outputs.(output_index) in
                   let sink = element output.Hb_sta.Cluster.element in
                   match sink.Hb_sync.Element.closure_edge with
                   | None -> ()
                   | Some closure_edge ->
                     let net = output.Hb_sta.Cluster.net in
                     if Float.is_finite dmin.(net) then begin
                       let d_p =
                         ideal_constraint ~assertion_edge ~closure_edge
                       in
                       let key =
                         if sink.Hb_sync.Element.inst >= 0 then
                           (sink.Hb_sync.Element.inst, net)
                         else (-1 - output.Hb_sta.Cluster.element, 0)
                       in
                       match Hashtbl.find_opt nearest key with
                       | Some (_, existing) when existing <= d_p -> ()
                       | Some _ | None ->
                         Hashtbl.replace nearest key (output_index, d_p)
                     end)
                (reachable cluster input.Hb_sta.Cluster.net);
              Hashtbl.iter
                (fun _ (output_index, d_p) ->
                   let output = cluster.Hb_sta.Cluster.outputs.(output_index) in
                   let sink = element output.Hb_sta.Cluster.element in
                   let path_dmin = dmin.(output.Hb_sta.Cluster.net) in
                   let o_y = Hb_sync.Element.closure_offset sink in
                   let bound = d_p -. endpoint_period sink +. o_y -. o_x in
                   if Hb_util.Time.le path_dmin bound then begin
                     let margin = bound -. path_dmin in
                     let id = output.Hb_sta.Cluster.element in
                     match Hashtbl.find_opt worst id with
                     | Some existing when existing >= margin -> ()
                     | Some _ | None -> Hashtbl.replace worst id margin
                   end)
                nearest)
         cluster.Hb_sta.Cluster.inputs)
    ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters;
  Hashtbl.fold
    (fun id margin acc ->
       { Hb_sta.Holdcheck.element = id;
         label = (element id).Hb_sync.Element.label;
         margin }
       :: acc)
    worst []
  |> List.sort (fun (a : Hb_sta.Holdcheck.violation) b ->
      compare b.Hb_sta.Holdcheck.margin a.Hb_sta.Holdcheck.margin)

(* Every data input port asserted [shift] ns later than its default
   timing (negative = earlier): the early arrivals that make the
   supplementary constraint bite. *)
let shifted_inputs design system ~shift =
  let ports = ref [] in
  for p = Hb_netlist.Design.port_count design - 1 downto 0 do
    let port = Hb_netlist.Design.port design p in
    if port.Hb_netlist.Design.direction = Hb_netlist.Design.Port_in
    && not port.Hb_netlist.Design.is_clock
    then begin
      let name = port.Hb_netlist.Design.port_name in
      let timing =
        Hb_sta.Config.port_timing Hb_sta.Config.default ~system ~port:name
          ~direction:`Input
      in
      ports :=
        (name, { timing with Hb_sta.Config.offset = timing.offset +. shift })
        :: !ports
    end
  done;
  { Hb_sta.Config.default with
    Hb_sta.Config.port_overrides = !ports; parallel_jobs = 1 }

let test_hold_matches_reference () =
  let violations = ref 0 in
  List.iter
    (fun (name, build) ->
       let design, system = build () in
       List.iter
         (fun shift ->
            let config = shifted_inputs design system ~shift in
            let ctx = context_of ~config design system in
            let render (v : Hb_sta.Holdcheck.violation) =
              Printf.sprintf "%d %s %h" v.Hb_sta.Holdcheck.element
                v.Hb_sta.Holdcheck.label v.Hb_sta.Holdcheck.margin
            in
            let compare_at offsets =
              let expected = reference_hold ctx in
              let got = Hb_sta.Holdcheck.check ctx in
              Alcotest.(check (list string))
                (Printf.sprintf "%s shifted %g ns, %s offsets" name shift
                   offsets)
                (List.map render expected) (List.map render got);
              violations := !violations + List.length got
            in
            compare_at "initial";
            ignore (Hb_sta.Algorithm1.run ctx : Hb_sta.Algorithm1.outcome);
            compare_at "relaxed")
         [ 0.0; -10.0; -30.0; -45.0 ])
    [ ("DES", fun () -> Hb_workload.Chips.des ());
      ("ALU", fun () -> Hb_workload.Chips.alu ());
      ("SM1F", fun () -> Hb_workload.Chips.sm1f ());
      ("DSP", fun () -> Hb_workload.Chips.dsp ());
      ("scale10k", fun () -> Hb_workload.Scale.scale10k ());
      ("multirate", multirate_hold_design);
      ("multirate ports", multirate_port_design);
      ("soup 4-phase",
       fun () -> Hb_workload.Soup.random ~seed:7L ~phases:4 ~gates:200 ());
    ];
  (* The early inputs do violate: the comparison is not over empty lists. *)
  Alcotest.(check bool) "violations compared" true (!violations > 0)

(* ------------------------------------------------------------------ *)
(* Engine & reports                                                   *)
(* ------------------------------------------------------------------ *)

let test_engine_report () =
  let design = ff_chain_design ~gates:2 () in
  let report = Hb_sta.Engine.analyse ~design ~system:(single_clock ()) () in
  Alcotest.(check bool) "timings non-negative" true
    (report.Hb_sta.Engine.timings.Hb_sta.Engine.preprocess_seconds >= 0.0
     && report.Hb_sta.Engine.timings.Hb_sta.Engine.analysis_seconds >= 0.0);
  let summary = Hb_sta.Report.summary report in
  let contains ~needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "summary mentions design" true
    (String.length summary > 0 && contains ~needle:"chain" summary)

(* The hold-violation section must render for any list shape: "all
   satisfied" on empty, and the worst entry (head of the sorted list)
   without crashing when present. *)
let test_summary_hold_violation_rendering () =
  let contains ~needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
    scan 0
  in
  let design = ff_chain_design ~gates:2 () in
  let report = Hb_sta.Engine.analyse ~design ~system:(single_clock ()) () in
  let empty = { report with Hb_sta.Engine.hold_violations = [] } in
  Alcotest.(check bool) "empty list renders satisfied" true
    (contains ~needle:"all satisfied" (Hb_sta.Report.summary empty));
  let forged =
    { report with
      Hb_sta.Engine.hold_violations =
        [ { Hb_sta.Holdcheck.element = 0; label = "ffX#0"; margin = 1.25 };
          { Hb_sta.Holdcheck.element = 1; label = "ffY#0"; margin = 0.5 } ] }
  in
  let summary = Hb_sta.Report.summary forged in
  Alcotest.(check bool) "worst entry named" true
    (contains ~needle:"ffX#0" summary);
  Alcotest.(check bool) "count rendered" true
    (contains ~needle:"VIOLATIONS: 2" summary)

let test_report_slow_nets () =
  let design = ff_chain_design ~gates:2 () in
  let ctx = context_of design (single_clock ~period:3.0 ()) in
  let outcome = Hb_sta.Algorithm1.run ctx in
  let nets = Hb_sta.Report.slow_nets ctx outcome.Hb_sta.Algorithm1.final in
  Alcotest.(check bool) "slow nets flagged" true (List.length nets >= 1)

let test_slacks_idempotent () =
  let design = ff_chain_design ~gates:2 () in
  let ctx = context_of design (single_clock ()) in
  let s1 = Hb_sta.Slacks.compute ctx in
  let s2 = Hb_sta.Slacks.compute ctx in
  check_time "stable worst" s1.Hb_sta.Slacks.worst s2.Hb_sta.Slacks.worst

(* Longer clock period can only improve the worst slack. *)
let prop_slack_monotone_in_period =
  QCheck.Test.make ~name:"worst slack is monotone in clock period" ~count:20
    QCheck.(pair (int_range 5 30) (int_range 31 80))
    (fun (p1, p2) ->
       let design = ff_chain_design ~gates:3 () in
       let slack_at period =
         let ctx = context_of design (single_clock ~period:(float_of_int period) ()) in
         (Hb_sta.Algorithm1.run ctx).Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst
       in
       Hb_util.Time.le (slack_at p1) (slack_at p2))

(* Block method and enumeration agree on random cloud designs. *)
let prop_block_vs_enumeration_random =
  QCheck.Test.make ~name:"block = enumeration on random pipelines" ~count:15
    QCheck.(pair (int_range 1 1000) (int_range 2 4))
    (fun (seed, stages) ->
       let design, system =
         Hb_workload.Pipelines.two_phase ~seed:(Int64.of_int seed)
           ~width:3 ~stages ~gates_per_stage:10 ()
       in
       let ctx = context_of design system in
       let block = Hb_sta.Slacks.compute ctx in
       let exact = Hb_sta.Reference.evaluate ctx in
       List.for_all
         (fun (element, slack) ->
            Float.abs (slack -. block.Hb_sta.Slacks.element_input_slack.(element))
            < 1e-6)
         (enumerated_endpoints exact))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_slack_monotone_in_period; prop_block_vs_enumeration_random ]
  in
  Alcotest.run "hb_sta"
    [ ("control",
       [ Alcotest.test_case "direct" `Quick test_control_direct;
         Alcotest.test_case "inverted" `Quick test_control_inverted;
         Alcotest.test_case "buffer chain" `Quick test_control_buffer_chain_delay;
         Alcotest.test_case "gated enable" `Quick test_control_gated_enable;
         Alcotest.test_case "two clocks" `Quick test_control_two_clocks_rejected;
         Alcotest.test_case "mixed sense" `Quick test_control_mixed_sense_rejected;
         Alcotest.test_case "non-monotonic" `Quick test_control_nonmonotonic_rejected;
         Alcotest.test_case "no clock" `Quick test_control_no_clock_rejected ]);
      ("elements",
       [ Alcotest.test_case "replication" `Quick test_elements_replication;
         Alcotest.test_case "latch edges" `Quick test_elements_latch_edges;
         Alcotest.test_case "inverted latch edges" `Quick test_elements_inverted_latch_edges;
         Alcotest.test_case "boundaries and enables" `Quick test_elements_boundaries_and_enables;
         Alcotest.test_case "unknown clock" `Quick test_elements_unknown_clock_rejected ]);
      ("cluster",
       [ Alcotest.test_case "extraction" `Quick test_cluster_extraction;
         Alcotest.test_case "cycle rejected" `Quick test_cluster_cycle_rejected;
         Alcotest.test_case "reachability" `Quick test_cluster_reachability;
         Alcotest.test_case "direct wire" `Quick test_cluster_direct_wire ]);
      ("passes",
       [ Alcotest.test_case "single clock one pass" `Quick test_passes_single_clock_one_pass;
         Alcotest.test_case "same edge full period" `Quick test_passes_same_edge_full_period;
         Alcotest.test_case "figure 1" `Quick test_passes_figure1 ]);
      ("slacks",
       [ Alcotest.test_case "golden ff chain" `Quick test_ff_chain_golden_slack;
         Alcotest.test_case "too slow detected" `Quick test_ff_chain_too_slow;
         Alcotest.test_case "latch borrowing" `Quick test_latch_borrowing_passes;
         Alcotest.test_case "ff cannot borrow" `Quick test_ff_same_structure_fails;
         Alcotest.test_case "cyclic too slow" `Quick test_cyclic_paths_too_slow;
         Alcotest.test_case "ring fits at 100ns" `Quick test_meets_timing_when_slow_ring_relaxed;
         Alcotest.test_case "multirate nearest closure" `Quick test_multirate_nearest_closure;
         Alcotest.test_case "idempotent" `Quick test_slacks_idempotent ]);
      ("complementary",
       [ Alcotest.test_case "q and qb" `Quick test_complementary_outputs ]);
      ("rise_fall",
       [ Alcotest.test_case "inverter chain exact" `Quick test_rise_fall_inverter_chain;
         Alcotest.test_case "never more pessimistic" `Quick test_rise_fall_never_more_pessimistic;
         Alcotest.test_case "critical path traces" `Quick test_rise_fall_critical_path_traces;
         Alcotest.test_case "non-unate safe" `Quick test_rise_fall_non_unate_safe ]);
      ("algorithm2",
       [ Alcotest.test_case "brackets" `Quick test_algorithm2_brackets;
         Alcotest.test_case "slow modules" `Quick test_algorithm2_slow_modules ]);
      ("paths",
       [ Alcotest.test_case "critical path structure" `Quick test_critical_path_structure;
         Alcotest.test_case "none when fast" `Quick test_slow_paths_only_negative;
         Alcotest.test_case "found when slow" `Quick test_slow_paths_found_when_slow ]);
      ("baseline",
       [ Alcotest.test_case "block = enumeration" `Quick test_block_matches_enumeration;
         Alcotest.test_case "minimized <= naive" `Quick test_settling_minimized_never_worse ]);
      ("reference",
       [ Alcotest.test_case "golden ff chain" `Quick test_reference_ff_chain_golden;
         Alcotest.test_case "too slow detected" `Quick test_reference_too_slow_golden;
         Alcotest.test_case "oracle = block" `Quick test_reference_matches_block;
         Alcotest.test_case "paths = evaluate on chips" `Quick
           test_reference_paths_match_evaluate ]);
      ("holdcheck",
       [ Alcotest.test_case "clean designs" `Quick test_hold_clean_designs;
         Alcotest.test_case "violation injected" `Quick test_hold_violation_injected;
         Alcotest.test_case "multirate no false positive" `Quick test_hold_multirate_no_false_positive;
         Alcotest.test_case "matches the per-input walk" `Quick test_hold_matches_reference ]);
      ("engine",
       [ Alcotest.test_case "report" `Quick test_engine_report;
         Alcotest.test_case "hold rendering" `Quick
           test_summary_hold_violation_rendering;
         Alcotest.test_case "slow nets" `Quick test_report_slow_nets ]);
      ("properties", qsuite);
    ]
