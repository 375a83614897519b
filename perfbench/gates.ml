(* Correctness gates: every workload checks the program's answers after
   its timed region, against a reference that counts toward no metric.
   Answers are compared as {!Hb_workload.Golden} expectations — verdict,
   worst slack, TNS, slow endpoints, hold count and the ten worst path
   slacks — bit for bit. *)

module Golden = Hb_workload.Golden

let path_limit = 10

(* The expectation a finished report answers, measured as
   [Golden.measure] does. *)
let expectation ~name (report : Hb_sta.Engine.report) =
  let ctx = report.Hb_sta.Engine.context in
  let outcome = report.Hb_sta.Engine.outcome in
  let slacks = outcome.Hb_sta.Algorithm1.final in
  let tns, slow_endpoints =
    Array.fold_left
      (fun (tns, slow) s ->
         if Hb_util.Time.is_finite s && s < 0.0 then (tns +. s, slow + 1)
         else (tns, slow))
      (0.0, 0) slacks.Hb_sta.Slacks.element_input_slack
  in
  let design = ctx.Hb_sta.Context.design in
  { Golden.design = name;
    instances = Hb_netlist.Design.instance_count design;
    nets = Hb_netlist.Design.net_count design;
    status =
      (match outcome.Hb_sta.Algorithm1.status with
       | Hb_sta.Algorithm1.Meets_timing -> "meets_timing"
       | Hb_sta.Algorithm1.Slow_paths -> "slow_paths");
    worst_slack = slacks.Hb_sta.Slacks.worst;
    tns;
    slow_endpoints;
    hold_violations = List.length report.Hb_sta.Engine.hold_violations;
    path_slacks =
      List.map
        (fun (p : Hb_sta.Paths.path) -> p.Hb_sta.Paths.slack)
        (Hb_sta.Paths.worst_paths ctx slacks ~limit:path_limit);
    qor = None;
  }

(* Problems, each prefixed with [label]; empty when the two agree. *)
let diff ~label ~expected ~actual =
  List.map
    (fun m -> label ^ ": " ^ m)
    (Golden.diff ~expected:{ expected with Golden.qor = None } ~actual)

(* The checked-in corpus entry; its QoR journal is not re-measured. *)
let corpus ~name =
  match Golden.load ~dir:(Filename.concat "test" "golden") name with
  | Some e -> e
  | None -> failwith ("no golden corpus entry for " ^ name)
