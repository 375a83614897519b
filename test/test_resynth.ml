(* Tests for hb_resynth: the speed-up operator and Algorithm 3. *)

let lib = Hb_cell.Library.default ()

let slow_pipeline () =
  Hb_workload.Pipelines.edge_ff ~period:14.0 ~width:4 ~stages:3
    ~gates_per_stage:25 ()

let pick (c : Hb_resynth.Speedup.change) =
  Printf.sprintf "%d %s %s->%s" c.Hb_resynth.Speedup.inst
    c.Hb_resynth.Speedup.inst_name c.Hb_resynth.Speedup.old_cell
    c.Hb_resynth.Speedup.new_cell

let upsize design instances =
  List.map pick
    (Hb_resynth.Speedup.upsize_instances design ~library:lib ~instances)

(* The picks come back in ascending instance order, one per instance,
   and the design is left as it was. *)
let test_upsize_applies () =
  let design, _ = slow_pipeline () in
  let before = Hb_netlist.Hbn_format.write design in
  let comb = Array.of_list (Hb_netlist.Design.comb_instances design) in
  let a = comb.(0) and b = comb.(1) in
  let expected inst =
    let record = Hb_netlist.Design.instance design inst in
    let cell = record.Hb_netlist.Design.cell in
    match Hb_cell.Library.upsize lib cell with
    | Some faster ->
      Printf.sprintf "%d %s %s->%s" inst record.Hb_netlist.Design.inst_name
        cell.Hb_cell.Cell.name faster.Hb_cell.Cell.name
    | None -> Alcotest.fail "pipeline gate at top drive"
  in
  Alcotest.(check (list string)) "picks" [ expected a; expected b ]
    (upsize design [ b; a; b ]);
  Alcotest.(check string) "design unchanged" before
    (Hb_netlist.Hbn_format.write design)

let test_upsize_none_at_top_drive () =
  (* A design whose only gate is already at the top drive. *)
  let b = Hb_netlist.Builder.create ~name:"top" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"i" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"u" ~cell:"inv_x4"
    ~connections:[ ("a", "i"); ("y", "n") ] ();
  let design = Hb_netlist.Builder.freeze b in
  Alcotest.(check (list string)) "no upsize possible" [] (upsize design [ 0 ])

let test_upsize_skips_sync () =
  let design, _ = slow_pipeline () in
  let sync = List.hd (Hb_netlist.Design.sync_instances design) in
  Alcotest.(check (list string)) "sync instances are not upsized" []
    (upsize design [ sync ])

let test_loop_improves_timing () =
  let design, system = slow_pipeline () in
  let before =
    let ctx = Hb_sta.Context.make ~design ~system () in
    (Hb_sta.Algorithm1.run ctx).Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst
  in
  Alcotest.(check bool) "starts too slow" true (Hb_util.Time.is_negative before);
  let result = Hb_resynth.Loop.optimise ~design ~system ~library:lib () in
  Alcotest.(check bool) "slack improved" true
    (result.Hb_resynth.Loop.final_worst_slack > before);
  Alcotest.(check bool) "history recorded" true
    (List.length result.Hb_resynth.Loop.history >= 1);
  (* Worst slack is non-decreasing through the history. *)
  let slacks =
    List.map (fun s -> s.Hb_resynth.Loop.worst_slack) result.Hb_resynth.Loop.history
    @ [ result.Hb_resynth.Loop.final_worst_slack ]
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && non_decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone improvement" true (non_decreasing slacks)

let test_loop_trades_area () =
  let design, system = slow_pipeline () in
  let area_before = (Hb_netlist.Stats.compute design).Hb_netlist.Stats.area in
  let result = Hb_resynth.Loop.optimise ~design ~system ~library:lib () in
  if result.Hb_resynth.Loop.met_timing then
    Alcotest.(check bool) "area grew to buy speed" true
      (result.Hb_resynth.Loop.final_area > area_before)

let test_loop_noop_when_fast () =
  let design, system =
    Hb_workload.Pipelines.edge_ff ~period:100.0 ~width:3 ~stages:3
      ~gates_per_stage:10 ()
  in
  let result = Hb_resynth.Loop.optimise ~design ~system ~library:lib () in
  Alcotest.(check bool) "met" true result.Hb_resynth.Loop.met_timing;
  Alcotest.(check int) "no iterations" 0 result.Hb_resynth.Loop.iterations

let test_loop_respects_cap () =
  (* An impossible period: the loop must stop at the cap or when no
     further upsizing is possible, without diverging. *)
  let design, system =
    Hb_workload.Pipelines.edge_ff ~period:3.0 ~width:3 ~stages:3
      ~gates_per_stage:20 ()
  in
  let result =
    Hb_resynth.Loop.optimise ~design ~system ~library:lib ~max_iterations:4 ()
  in
  Alcotest.(check bool) "did not meet impossible timing" true
    (not result.Hb_resynth.Loop.met_timing);
  Alcotest.(check bool) "bounded iterations" true
    (result.Hb_resynth.Loop.iterations <= 4)

(* The QoR journal: every step carries consistent slack aggregates, the
   loop also emits one [resynth.iteration] log line per step, and a met
   run ends with a clean final QoR. *)
let test_qor_journal () =
  let design, system = slow_pipeline () in
  Hb_util.Log.reset ();
  Hb_util.Log.set_level Hb_util.Log.Info;
  let events = ref [] in
  Hb_util.Log.set_sink (fun e -> events := e :: !events);
  let result =
    Fun.protect
      ~finally:(fun () ->
          Hb_util.Log.set_level Hb_util.Log.Off;
          Hb_util.Log.set_sink_default ())
      (fun () -> Hb_resynth.Loop.optimise ~design ~system ~library:lib ())
  in
  let history = result.Hb_resynth.Loop.history in
  Alcotest.(check bool) "journal non-empty" true (List.length history >= 1);
  List.iteri
    (fun i step ->
       let label fmt = Printf.sprintf "step %d: %s" i fmt in
       Alcotest.(check int) (label "iteration numbering") i
         step.Hb_resynth.Loop.iteration;
       Alcotest.(check bool) (label "tns non-positive") true
         (step.Hb_resynth.Loop.total_negative_slack <= 0.0);
       Alcotest.(check bool) (label "slow endpoints count") true
         (step.Hb_resynth.Loop.slow_endpoints >= 0);
       (* Negative slack somewhere implies at least one slow endpoint,
          and vice versa. *)
       Alcotest.(check bool) (label "tns and endpoint count agree") true
         ((step.Hb_resynth.Loop.total_negative_slack < 0.0)
          = (step.Hb_resynth.Loop.slow_endpoints > 0));
       if i = 0 then
         Alcotest.(check (float 0.0)) (label "first delta is zero") 0.0
           step.Hb_resynth.Loop.delta_worst_slack
       else
         Alcotest.(check bool) (label "delta finite") true
           (Float.is_finite step.Hb_resynth.Loop.delta_worst_slack))
    history;
  (* While iterating, the design is slow: every step saw slow endpoints. *)
  (match history with
   | step :: _ ->
     Alcotest.(check bool) "first step sees slow endpoints" true
       (step.Hb_resynth.Loop.slow_endpoints > 0)
   | [] -> ());
  if result.Hb_resynth.Loop.met_timing then begin
    Alcotest.(check int) "met: no slow endpoints left" 0
      result.Hb_resynth.Loop.final_slow_endpoints;
    Alcotest.(check (float 0.0)) "met: tns cleared" 0.0
      result.Hb_resynth.Loop.final_total_negative_slack
  end;
  let journal_lines =
    List.filter (fun e -> e.Hb_util.Log.site = "resynth.iteration") !events
  in
  Alcotest.(check int) "one log line per iteration"
    (List.length history) (List.length journal_lines);
  Hb_util.Log.reset ()

(* A chain of 13 inverters from ff1 to ff2 whose first output also gates
   ff3's clock: g1 sits next to a control cone, so the ECO path refuses
   every round that resizes it, and the loop makes the round on the
   design and opens a fresh session. The journal and the netlist are
   pinned bit for bit. *)
let gated_chain () =
  let b = Hb_netlist.Builder.create ~name:"gated" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"clk"
    ~direction:Hb_netlist.Design.Port_in ~is_clock:true;
  Hb_netlist.Builder.add_port b ~name:"din"
    ~direction:Hb_netlist.Design.Port_in ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"ff1" ~cell:"dff"
    ~connections:[ ("d", "din"); ("ck", "clk"); ("q", "n0") ] ();
  for i = 1 to 13 do
    Hb_netlist.Builder.add_instance b ~name:(Printf.sprintf "g%d" i)
      ~cell:"inv_x1"
      ~connections:
        [ ("a", Printf.sprintf "n%d" (i - 1)); ("y", Printf.sprintf "n%d" i) ]
      ()
  done;
  Hb_netlist.Builder.add_instance b ~name:"ff2" ~cell:"dff"
    ~connections:[ ("d", "n13"); ("ck", "clk"); ("q", "q2") ] ();
  Hb_netlist.Builder.add_instance b ~name:"gate" ~cell:"and2_x1"
    ~connections:[ ("a", "n1"); ("b", "clk"); ("y", "gclk") ] ();
  Hb_netlist.Builder.add_instance b ~name:"ff3" ~cell:"dff"
    ~connections:[ ("d", "din"); ("ck", "gclk"); ("q", "q3") ] ();
  let system =
    Hb_clock.System.make ~overall_period:8.0
      [ Hb_clock.Waveform.make ~name:"clk" ~multiplier:1 ~rise:0.0
          ~width:4.0 ]
  in
  (Hb_netlist.Builder.freeze b, system)

let test_loop_control_cone_fallback () =
  let design, system = gated_chain () in
  (let session = Hb_sta.Session.create ~design ~system () in
   (match
      Hb_sta.Session.apply_r session
        [ Hb_sta.Edit.Resize_gate
            { instance = "g1"; cell = Hb_cell.Library.find_exn lib "inv_x2" } ]
    with
    | Ok _ -> Alcotest.fail "resizing g1 must be refused"
    | Error _ -> ());
   Hb_sta.Session.close session);
  let result = Hb_resynth.Loop.optimise ~design ~system ~library:lib () in
  let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  let round from_cell to_cell =
    List.init 13 (fun i ->
        Printf.sprintf "g%d %s->%s" (i + 1) from_cell to_cell)
  in
  Alcotest.(check bool) "met" true result.Hb_resynth.Loop.met_timing;
  Alcotest.(check int) "iterations" 2 result.Hb_resynth.Loop.iterations;
  Alcotest.(check (list (pair string (list string)))) "journal"
    [ ("bff5db22d0e5603c", round "inv_x1" "inv_x2");
      ("bfdc083126e978f0", round "inv_x2" "inv_x4") ]
    (List.map
       (fun (s : Hb_resynth.Loop.step) ->
          ( bits s.Hb_resynth.Loop.worst_slack,
            List.map
              (fun (c : Hb_resynth.Speedup.change) ->
                 Printf.sprintf "%s %s->%s" c.Hb_resynth.Speedup.inst_name
                   c.Hb_resynth.Speedup.old_cell c.Hb_resynth.Speedup.new_cell)
              s.Hb_resynth.Loop.changed ))
       result.Hb_resynth.Loop.history);
  Alcotest.(check string) "final worst slack" "3f9a9fbe76c8b500"
    (bits result.Hb_resynth.Loop.final_worst_slack);
  let gates =
    String.concat ""
      (List.init 13 (fun i ->
           Printf.sprintf "inst g%d inv_x4 a=n%d y=n%d\n" (i + 1) i (i + 1)))
  in
  Alcotest.(check string) "netlist"
    ("design gated\nport in clk clock\nport in din\n\
      inst ff1 dff d=din ck=clk q=n0\n" ^ gates
     ^ "inst ff2 dff d=n13 ck=clk q=q2\n\
        inst gate and2_x1 a=n1 b=clk y=gclk\n\
        inst ff3 dff d=din ck=gclk q=q3\nend\n")
    (Hb_netlist.Hbn_format.write result.Hb_resynth.Loop.design);
  let fresh =
    Hb_sta.Engine.analyse ~design:result.Hb_resynth.Loop.design ~system ()
  in
  Alcotest.(check string) "final = fresh analysis"
    (bits
       fresh.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst)
    (bits result.Hb_resynth.Loop.final_worst_slack)

let () =
  Alcotest.run "hb_resynth"
    [ ("speedup",
       [ Alcotest.test_case "applies" `Quick test_upsize_applies;
         Alcotest.test_case "top drive" `Quick test_upsize_none_at_top_drive;
         Alcotest.test_case "skips sync" `Quick test_upsize_skips_sync ]);
      ("loop",
       [ Alcotest.test_case "improves timing" `Quick test_loop_improves_timing;
         Alcotest.test_case "trades area" `Quick test_loop_trades_area;
         Alcotest.test_case "noop when fast" `Quick test_loop_noop_when_fast;
         Alcotest.test_case "respects cap" `Quick test_loop_respects_cap;
         Alcotest.test_case "qor journal" `Quick test_qor_journal;
         Alcotest.test_case "control-cone fallback" `Quick
           test_loop_control_cone_fallback ]);
    ]
