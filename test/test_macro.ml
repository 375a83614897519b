(* Macro-level analysis semantics: bit-identical element slacks and
   identical worst paths against flat analysis on every seed design,
   macro invalidation granularity observed through telemetry, the
   rise/fall fallback, the config directive, and the Rss helper. *)

let seed_designs =
  [ ("des", fun () -> Hb_workload.Chips.des ());
    ("alu", fun () -> Hb_workload.Chips.alu ());
    ("sm1f", fun () -> Hb_workload.Chips.sm1f ());
    ("sm1h", fun () -> Hb_workload.Chips.sm1h ());
    ("dsp", fun () -> Hb_workload.Chips.dsp ());
    ("figure1", fun () -> Hb_workload.Figures.figure1 ());
    (* A pocket-sized instance of the scale generator: same topology as
       the 100k/1M presets, small enough for a unit test. *)
    ("feistel_small",
     fun () ->
       Hb_workload.Scale.feistel ~name:"feistel_small" ~tiles:2 ~stages:4
         ~slow_depth:20 ());
  ]

let flat_config = Hb_sta.Config.default
let macro_config = { Hb_sta.Config.default with Hb_sta.Config.macro = true }

(* Parity is claimed bit-for-bit, so compare raw float words — no
   epsilon, and distinguishable infinities/zeros. *)
let check_bits label expected got =
  Alcotest.(check int64) label
    (Int64.bits_of_float expected) (Int64.bits_of_float got)

let check_bit_array label expected got =
  Alcotest.(check int) (label ^ " length")
    (Array.length expected) (Array.length got);
  Array.iteri
    (fun i e -> check_bits (Printf.sprintf "%s.(%d)" label i) e got.(i))
    expected

let analyse_both name build =
  let design, system = build () in
  let flat =
    Hb_sta.Engine.analyse ~design ~system ~config:flat_config
      ~generate_constraints:false ~check_hold:false ()
  in
  let design, system = build () in
  let macro =
    Hb_sta.Engine.analyse ~design ~system ~config:macro_config
      ~generate_constraints:false ~check_hold:false ()
  in
  ignore name;
  (flat, macro)

let test_slack_parity () =
  List.iter
    (fun (name, build) ->
       let flat, macro = analyse_both name build in
       let f = flat.Hb_sta.Engine.outcome and m = macro.Hb_sta.Engine.outcome in
       Alcotest.(check bool) (name ^ " same status")
         (f.Hb_sta.Algorithm1.status = Hb_sta.Algorithm1.Meets_timing)
         (m.Hb_sta.Algorithm1.status = Hb_sta.Algorithm1.Meets_timing);
       Alcotest.(check int) (name ^ " forward cycles")
         f.Hb_sta.Algorithm1.forward_cycles m.Hb_sta.Algorithm1.forward_cycles;
       Alcotest.(check int) (name ^ " backward cycles")
         f.Hb_sta.Algorithm1.backward_cycles m.Hb_sta.Algorithm1.backward_cycles;
       let fs = f.Hb_sta.Algorithm1.final and ms = m.Hb_sta.Algorithm1.final in
       check_bits (name ^ " worst slack") fs.Hb_sta.Slacks.worst
         ms.Hb_sta.Slacks.worst;
       check_bit_array (name ^ " element input slacks")
         fs.Hb_sta.Slacks.element_input_slack
         ms.Hb_sta.Slacks.element_input_slack;
       check_bit_array (name ^ " element output slacks")
         fs.Hb_sta.Slacks.element_output_slack
         ms.Hb_sta.Slacks.element_output_slack;
       (* The final compute is flat in both modes, so the net-level
          arrays must agree bit-for-bit too. *)
       check_bit_array (name ^ " net slacks") fs.Hb_sta.Slacks.net_slack
         ms.Hb_sta.Slacks.net_slack)
    seed_designs

let test_path_parity () =
  List.iter
    (fun (name, build) ->
       let design, system = build () in
       let flat =
         Hb_sta.Session.create ~design ~system ~config:flat_config ()
       in
       let design, system = build () in
       let macro =
         Hb_sta.Session.create ~design ~system ~config:macro_config ()
       in
       let fp = Hb_sta.Session.worst_paths flat ~limit:10 in
       let mp = Hb_sta.Session.worst_paths macro ~limit:10 in
       Alcotest.(check int) (name ^ " path count")
         (List.length fp) (List.length mp);
       List.iter2
         (fun (a : Hb_sta.Paths.path) (b : Hb_sta.Paths.path) ->
            Alcotest.(check int) (name ^ " start element")
              a.Hb_sta.Paths.start_element b.Hb_sta.Paths.start_element;
            Alcotest.(check int) (name ^ " end element")
              a.Hb_sta.Paths.end_element b.Hb_sta.Paths.end_element;
            check_bits (name ^ " path slack") a.Hb_sta.Paths.slack
              b.Hb_sta.Paths.slack;
            Alcotest.(check (list int)) (name ^ " path nets")
              (List.map (fun (h : Hb_sta.Paths.hop) -> h.Hb_sta.Paths.net)
                 a.Hb_sta.Paths.hops)
              (List.map (fun (h : Hb_sta.Paths.hop) -> h.Hb_sta.Paths.net)
                 b.Hb_sta.Paths.hops))
         fp mp)
    seed_designs

(* Rise/fall analysis falls back to flat evaluation: enabling macros must
   change nothing at all. *)
let test_rise_fall_fallback () =
  let rf config = { config with Hb_sta.Config.rise_fall = true } in
  let design, system = Hb_workload.Chips.alu () in
  let flat =
    Hb_sta.Engine.analyse ~design ~system ~config:(rf flat_config)
      ~generate_constraints:false ~check_hold:false ()
  in
  let design, system = Hb_workload.Chips.alu () in
  let macro =
    Hb_sta.Engine.analyse ~design ~system ~config:(rf macro_config)
      ~generate_constraints:false ~check_hold:false ()
  in
  check_bit_array "rise/fall element input slacks"
    flat.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final
      .Hb_sta.Slacks.element_input_slack
    macro.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final
      .Hb_sta.Slacks.element_input_slack

(* An instance that carries a cluster timing arc, for delay what-ifs. *)
let arc_instance ctx =
  let design = ctx.Hb_sta.Context.design in
  let clusters = ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters in
  let hit = ref None in
  Array.iter
    (fun (cluster : Hb_sta.Cluster.t) ->
       if !hit = None && Array.length cluster.Hb_sta.Cluster.arc_inst > 0 then
         hit :=
           Some
             (cluster.Hb_sta.Cluster.id,
              cluster.Hb_sta.Cluster.arc_inst.(0)))
    clusters;
  match !hit with
  | Some (cluster_id, inst) ->
    (cluster_id,
     (Hb_netlist.Design.instance design inst).Hb_netlist.Design.inst_name)
  | None -> Alcotest.fail "no cluster with arcs"

let test_invalidation_granularity () =
  let design, system = Hb_workload.Chips.des () in
  let config = { macro_config with Hb_sta.Config.telemetry = true } in
  let session = Hb_sta.Session.create ~design ~system ~config () in
  let read () = Hb_util.Telemetry.read_counter Hb_sta.Macro.c_extractions in
  let before = read () in
  ignore
    (Hb_sta.Session.analyse ~generate_constraints:false ~check_hold:false
       session
     : Hb_sta.Session.report);
  let after_first = read () in
  let cluster_count =
    Array.length
      (Hb_sta.Session.context session).Hb_sta.Context.table
        .Hb_sta.Cluster.clusters
  in
  Alcotest.(check int) "first analysis extracts every macro" cluster_count
    (after_first - before);
  (* Re-analysing only moves offsets; every macro is reused. *)
  ignore
    (Hb_sta.Session.analyse ~generate_constraints:false ~check_hold:false
       session
     : Hb_sta.Session.report);
  Alcotest.(check int) "offset moves reuse every macro" after_first (read ());
  (* A single-instance delay edit rebuilds exactly the touched cluster's
     macro. *)
  let _, instance = arc_instance (Hb_sta.Session.context session) in
  let _ : Hb_sta.Session.apply_result =
    Hb_sta.Session.apply session
      [ Hb_sta.Edit.Scale_delay { instance; factor = 1.05 } ]
  in
  ignore
    (Hb_sta.Session.analyse ~generate_constraints:false ~check_hold:false
       session
     : Hb_sta.Session.report);
  Alcotest.(check int) "delay edit rebuilds exactly one macro"
    (after_first + 1) (read ())

let test_config_directive () =
  let parsed = Hb_sta.Config_format.parse "macro on\n" in
  Alcotest.(check bool) "macro on parses" true parsed.Hb_sta.Config.macro;
  let parsed = Hb_sta.Config_format.parse ~base:parsed "macro off\n" in
  Alcotest.(check bool) "macro off parses" false parsed.Hb_sta.Config.macro;
  let text = Hb_sta.Config_format.to_string macro_config in
  let round = Hb_sta.Config_format.parse text in
  Alcotest.(check bool) "macro survives round trip" true
    round.Hb_sta.Config.macro

(* The scale generator's load-bearing property: inter-stage wiring is a
   bijection, so no cluster ever spans two S-box clouds. Instance names
   encode their cloud ("t2s1b5_g7"); everything before the last '_' is
   the cloud id, and a separated design has exactly one cloud id per
   cluster. *)
let test_scale_cluster_separation () =
  let design, system =
    Hb_workload.Scale.feistel ~name:"sep" ~tiles:3 ~stages:3 ~slow_depth:12 ()
  in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let cloud_of instance =
    let name =
      (Hb_netlist.Design.instance design instance).Hb_netlist.Design.inst_name
    in
    String.sub name 0 (String.rindex name '_')
  in
  Array.iter
    (fun cluster ->
       match cluster.Hb_sta.Cluster.members with
       | [] -> ()
       | first :: rest ->
         let cloud = cloud_of first in
         List.iter
           (fun member ->
              Alcotest.(check string) "cluster stays inside one cloud"
                cloud (cloud_of member))
           rest)
    ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters

let test_scale10k_smoke () =
  let design, system = Hb_workload.Scale.scale10k () in
  let cells = Hb_netlist.Design.instance_count design in
  Alcotest.(check bool) "scale10k is ~10k cells" true
    (cells > 9_000 && cells < 11_000);
  let macro =
    Hb_sta.Engine.analyse ~design ~system ~config:macro_config
      ~generate_constraints:false ~check_hold:false ()
  in
  let outcome = macro.Hb_sta.Engine.outcome in
  Alcotest.(check bool) "slow pocket makes too-slow paths" true
    (outcome.Hb_sta.Algorithm1.status = Hb_sta.Algorithm1.Slow_paths);
  Alcotest.(check bool) "relaxation is not capped" false
    outcome.Hb_sta.Algorithm1.capped;
  Alcotest.(check bool) "tight period forces many cycles" true
    (outcome.Hb_sta.Algorithm1.forward_cycles
     + outcome.Hb_sta.Algorithm1.backward_cycles
     >= 10)

(* The daemon can build a registered generator in-process and analyse it
   in macro mode. *)
let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_serve_generator () =
  let daemon =
    Hb_sta.Serve.create ~generators:Hb_workload.Catalog.generators ()
  in
  let reply =
    Hb_sta.Serve.handle_line daemon
      {|{"id": 1, "method": "load", "params": {"generator": "figure1", "macro": true}}|}
  in
  Alcotest.(check bool) "generator load succeeds" true
    (contains ~needle:{|"status":"ok"|} reply);
  Alcotest.(check bool) "load reports the generated design" true
    (contains ~needle:"figure1" reply);
  let reply =
    Hb_sta.Serve.handle_line daemon
      {|{"id": 2, "method": "load", "params": {"generator": "no_such"}}|}
  in
  Alcotest.(check bool) "unknown generator is a bad request" true
    (contains ~needle:"bad_request" reply)

let test_rss () =
  match Hb_util.Rss.peak_bytes () with
  | Some bytes ->
    Alcotest.(check bool) "peak RSS is positive" true (bytes > 0)
  | None ->
    Alcotest.(check bool) "procfs absent is acceptable" true
      (not (Sys.file_exists "/proc/self/status"))

let () =
  Alcotest.run "macro"
    [ ("parity",
       [ Alcotest.test_case "element slacks bit-identical" `Quick
           test_slack_parity;
         Alcotest.test_case "worst paths identical" `Quick test_path_parity;
         Alcotest.test_case "rise/fall falls back to flat" `Quick
           test_rise_fall_fallback;
       ]);
      ("invalidation",
       [ Alcotest.test_case "per-cluster macro rebuilds" `Quick
           test_invalidation_granularity;
       ]);
      ("scale",
       [ Alcotest.test_case "clusters never span S-box clouds" `Quick
           test_scale_cluster_separation;
         Alcotest.test_case "scale10k smoke" `Slow test_scale10k_smoke;
         Alcotest.test_case "serve loads by generator name" `Quick
           test_serve_generator;
       ]);
      ("plumbing",
       [ Alcotest.test_case "config directive" `Quick test_config_directive;
         Alcotest.test_case "peak RSS probe" `Quick test_rss;
       ]);
    ]
