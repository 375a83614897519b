(* Tests for the RC substrate: tree construction, Elmore delays against
   hand-computed values, wire models, and the delay providers. *)

let check_float = Alcotest.(check (float 1e-9))
let lib = Hb_cell.Library.default ()

(* ------------------------------------------------------------------ *)
(* Tree                                                               *)
(* ------------------------------------------------------------------ *)

let chain3 () =
  (* root -(1k)- n1(1pF) -(2k)- n2(2pF) *)
  Hb_rc.Tree.build
    [ { Hb_rc.Tree.parent = -1; resistance = 0.0; capacitance = 0.0; label = "" };
      { Hb_rc.Tree.parent = 0; resistance = 1.0; capacitance = 1.0; label = "a" };
      { Hb_rc.Tree.parent = 1; resistance = 2.0; capacitance = 2.0; label = "b" };
    ]

let test_tree_basics () =
  let tree = chain3 () in
  Alcotest.(check int) "nodes" 3 (Hb_rc.Tree.node_count tree);
  check_float "total cap" 3.0 (Hb_rc.Tree.total_capacitance tree);
  check_float "path resistance to b" 3.0 (Hb_rc.Tree.path_resistance tree 2);
  Alcotest.(check (option int)) "find a" (Some 1) (Hb_rc.Tree.find tree "a");
  Alcotest.(check (option int)) "find zz" None (Hb_rc.Tree.find tree "zz")

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_tree_validation () =
  expect_invalid (fun () -> Hb_rc.Tree.build []);
  expect_invalid (fun () ->
      Hb_rc.Tree.build
        [ { Hb_rc.Tree.parent = 0; resistance = 0.0; capacitance = 0.0; label = "" } ]);
  expect_invalid (fun () ->
      Hb_rc.Tree.build
        [ { Hb_rc.Tree.parent = -1; resistance = 0.0; capacitance = 0.0; label = "" };
          { Hb_rc.Tree.parent = 5; resistance = 1.0; capacitance = 1.0; label = "" } ]);
  expect_invalid (fun () ->
      Hb_rc.Tree.build
        [ { Hb_rc.Tree.parent = -1; resistance = 0.0; capacitance = 0.0; label = "" };
          { Hb_rc.Tree.parent = 0; resistance = -1.0; capacitance = 1.0; label = "" } ])

(* ------------------------------------------------------------------ *)
(* Elmore                                                             *)
(* ------------------------------------------------------------------ *)

let test_elmore_chain_by_hand () =
  (* Driver 1k into the chain above:
     TD(root) = 1 * (1 + 2)          = 3
     TD(a)    = 3 + 1 * (1 + 2)      = 6
     TD(b)    = 6 + 2 * 2            = 10 *)
  let td = Hb_rc.Elmore.delays (chain3 ()) ~r_driver:1.0 in
  check_float "root" 3.0 td.(0);
  check_float "a" 6.0 td.(1);
  check_float "b" 10.0 td.(2)

let test_elmore_star_by_hand () =
  (* Star: two sinks of 1pF each through 1k segments, driver 2k:
     TD(sink) = 2 * 2 + 1 * 1 = 5 for both. *)
  let tree =
    Hb_rc.Tree.build
      [ { Hb_rc.Tree.parent = -1; resistance = 0.0; capacitance = 0.0; label = "" };
        { Hb_rc.Tree.parent = 0; resistance = 1.0; capacitance = 1.0; label = "s1" };
        { Hb_rc.Tree.parent = 0; resistance = 1.0; capacitance = 1.0; label = "s2" };
      ]
  in
  let td = Hb_rc.Elmore.delays tree ~r_driver:2.0 in
  check_float "s1" 5.0 td.(1);
  check_float "s2" 5.0 td.(2)

let test_upper_bound_dominates () =
  let tree = chain3 () in
  let td = Hb_rc.Elmore.delays tree ~r_driver:1.5 in
  let ub = Hb_rc.Elmore.upper_bounds tree ~r_driver:1.5 in
  Array.iteri
    (fun i d ->
       Alcotest.(check bool) (Printf.sprintf "node %d" i) true (ub.(i) >= d -. 1e-12))
    td

let test_worst_sink_prefers_labels () =
  let tree = chain3 () in
  let node, delay = Hb_rc.Elmore.worst_sink tree ~r_driver:1.0 in
  Alcotest.(check int) "deepest labelled sink" 2 node;
  check_float "its delay" 10.0 delay

let prop_elmore_monotone_in_driver =
  QCheck.Test.make ~name:"Elmore delay grows with driver resistance" ~count:200
    QCheck.(pair (float_range 0.0 10.0) (float_range 0.0 10.0))
    (fun (r1, r2) ->
       let lo = Stdlib.min r1 r2 and hi = Stdlib.max r1 r2 in
       let tree = chain3 () in
       let d_lo = Hb_rc.Elmore.delays tree ~r_driver:lo in
       let d_hi = Hb_rc.Elmore.delays tree ~r_driver:hi in
       Array.for_all Fun.id (Array.mapi (fun i d -> d <= d_hi.(i) +. 1e-12) d_lo))

let prop_elmore_exceeds_lumped_when_wired =
  (* With positive wire resistance, per-sink Elmore >= r_driver * C_total
     (the lumped value). *)
  QCheck.Test.make ~name:"Elmore >= lumped for wired sinks" ~count:200
    QCheck.(triple (float_range 0.1 5.0) (float_range 0.0 1.0) (int_range 1 6))
    (fun (r_driver, seg_r, sinks) ->
       let parameters =
         { Hb_rc.Wire_model.segment_resistance = seg_r;
           segment_capacitance = 0.01;
           topology = Hb_rc.Wire_model.Star }
       in
       let tree =
         Hb_rc.Wire_model.net_tree ~parameters
           ~sinks:(List.init sinks (fun i -> (Printf.sprintf "s%d" i, 0.02)))
       in
       let lumped = r_driver *. Hb_rc.Tree.total_capacitance tree in
       let _, worst = Hb_rc.Elmore.worst_sink tree ~r_driver in
       worst >= lumped -. 1e-12)

(* ------------------------------------------------------------------ *)
(* Wire model                                                         *)
(* ------------------------------------------------------------------ *)

let test_wire_star_vs_chain () =
  let sinks = [ ("a", 0.01); ("b", 0.01); ("c", 0.01) ] in
  let star =
    Hb_rc.Wire_model.net_tree
      ~parameters:{ Hb_rc.Wire_model.default with topology = Hb_rc.Wire_model.Star }
      ~sinks
  in
  let chain =
    Hb_rc.Wire_model.net_tree
      ~parameters:{ Hb_rc.Wire_model.default with topology = Hb_rc.Wire_model.Chain }
      ~sinks
  in
  check_float "same total capacitance"
    (Hb_rc.Tree.total_capacitance star)
    (Hb_rc.Tree.total_capacitance chain);
  (* The chain's far sink sees more resistance, so it is slower. *)
  let _, worst_star = Hb_rc.Elmore.worst_sink star ~r_driver:1.0 in
  let _, worst_chain = Hb_rc.Elmore.worst_sink chain ~r_driver:1.0 in
  Alcotest.(check bool) "chain slower than star" true (worst_chain > worst_star)

let test_wire_cap_matches_lumped_model () =
  (* The default wire parameters mirror the lumped model's 0.015 pF per
     load, so both estimators see the same total capacitance. *)
  let sinks = [ ("a", 0.01); ("b", 0.02) ] in
  let tree = Hb_rc.Wire_model.net_tree ~parameters:Hb_rc.Wire_model.default ~sinks in
  check_float "total" (0.01 +. 0.02 +. (2.0 *. 0.015))
    (Hb_rc.Tree.total_capacitance tree)

(* ------------------------------------------------------------------ *)
(* Providers in the analyser                                          *)
(* ------------------------------------------------------------------ *)

let single_clock ?(period = 100.0) () =
  Hb_clock.System.make ~overall_period:period
    [ Hb_clock.Waveform.make ~name:"clk" ~multiplier:1 ~rise:0.0
        ~width:(0.4 *. period) ]

let small_design () =
  let b = Hb_netlist.Builder.create ~name:"prov" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"clk" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:true;
  Hb_netlist.Builder.add_port b ~name:"d" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"ff1" ~cell:"dff"
    ~connections:[ ("d", "d"); ("ck", "clk"); ("q", "n0") ] ();
  Hb_netlist.Builder.add_instance b ~name:"g1" ~cell:"nand2_x1"
    ~connections:[ ("a", "n0"); ("b", "n0"); ("y", "n1") ] ();
  Hb_netlist.Builder.add_instance b ~name:"g2" ~cell:"inv_x1"
    ~connections:[ ("a", "n1"); ("y", "n2") ] ();
  Hb_netlist.Builder.add_instance b ~name:"ff2" ~cell:"dff"
    ~connections:[ ("d", "n2"); ("ck", "clk"); ("q", "n3") ] ();
  Hb_netlist.Builder.freeze b

let worst_with ?delays design =
  let ctx = Hb_sta.Context.make ~design ~system:(single_clock ()) ?delays () in
  (Hb_sta.Algorithm1.run ctx).Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst

let test_rc_provider_more_conservative () =
  let design = small_design () in
  let lumped = worst_with design in
  let rc = worst_with ~delays:(Hb_sta.Delays.rc ()) design in
  Alcotest.(check bool) "rc slack <= lumped slack" true
    (Hb_util.Time.le rc lumped)

let test_rc_provider_zero_wire_matches_lumped () =
  (* With zero segment resistance, the star Elmore delay collapses to
     r_driver * C_total — exactly the lumped linear model. *)
  let design = small_design () in
  let zero_wire =
    Hb_sta.Delays.rc
      ~parameters:
        { Hb_rc.Wire_model.segment_resistance = 0.0;
          segment_capacitance = 0.015;
          topology = Hb_rc.Wire_model.Star }
      ()
  in
  Alcotest.(check (float 1e-6)) "identical worst slack"
    (worst_with design) (worst_with ~delays:zero_wire design)

let test_chain_topology_slower () =
  let design = small_design () in
  let with_topology topology =
    worst_with
      ~delays:
        (Hb_sta.Delays.rc
           ~parameters:{ Hb_rc.Wire_model.default with topology }
           ())
      design
  in
  Alcotest.(check bool) "chain <= star slack" true
    (Hb_util.Time.le
       (with_topology Hb_rc.Wire_model.Chain)
       (with_topology Hb_rc.Wire_model.Star))

(* Every listed name builds the provider of that name, and a provider
   with other wire parameters has a name no lookup accepts. *)
let test_provider_names () =
  Alcotest.(check (list string)) "names" [ "lumped"; "rc"; "rc-chain" ]
    Hb_sta.Delays.names;
  List.iter
    (fun name ->
       match Hb_sta.Delays.of_name name with
       | Some delays ->
         Alcotest.(check string) "round trip" name delays.Hb_sta.Delays.name
       | None -> Alcotest.failf "of_name %S is None" name)
    Hb_sta.Delays.names;
  let custom =
    Hb_sta.Delays.rc
      ~parameters:
        { Hb_rc.Wire_model.default with
          Hb_rc.Wire_model.segment_resistance = 0.0 }
      ()
  in
  Alcotest.(check bool) "custom parameters" true
    (Hb_sta.Delays.of_name custom.Hb_sta.Delays.name = None)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_elmore_monotone_in_driver; prop_elmore_exceeds_lumped_when_wired ]
  in
  Alcotest.run "hb_rc"
    [ ("tree",
       [ Alcotest.test_case "basics" `Quick test_tree_basics;
         Alcotest.test_case "validation" `Quick test_tree_validation ]);
      ("elmore",
       [ Alcotest.test_case "chain by hand" `Quick test_elmore_chain_by_hand;
         Alcotest.test_case "star by hand" `Quick test_elmore_star_by_hand;
         Alcotest.test_case "upper bound dominates" `Quick test_upper_bound_dominates;
         Alcotest.test_case "worst sink" `Quick test_worst_sink_prefers_labels ]);
      ("wire",
       [ Alcotest.test_case "star vs chain" `Quick test_wire_star_vs_chain;
         Alcotest.test_case "cap parity with lumped" `Quick test_wire_cap_matches_lumped_model ]);
      ("provider",
       [ Alcotest.test_case "rc conservative" `Quick test_rc_provider_more_conservative;
         Alcotest.test_case "zero wire = lumped" `Quick test_rc_provider_zero_wire_matches_lumped;
         Alcotest.test_case "chain slower" `Quick test_chain_topology_slower;
         Alcotest.test_case "names round trip" `Quick test_provider_names ]);
      ("properties", qsuite);
    ]
