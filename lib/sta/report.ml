(* Human-readable rendering of the merged telemetry snapshot, appended to
   the summary when the analysis ran with [Config.telemetry]. *)
let metrics_section () =
  let snapshot = Hb_util.Telemetry.snapshot () in
  let buffer = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  add "\nmetrics:\n";
  List.iter
    (fun (name, value) -> add "  %-40s %12d\n" name value)
    snapshot.Hb_util.Telemetry.counters;
  List.iter
    (fun (name, value) -> add "  %-40s %12.0f\n" name value)
    snapshot.Hb_util.Telemetry.gauges;
  (match Hb_util.Telemetry.aggregate_spans snapshot with
   | [] -> ()
   | spans ->
     add "phase spans (count, wall s, cpu s):\n";
     List.iter
       (fun (name, count, wall, cpu) ->
          add "  %-40s %6dx %10.4f %10.4f\n" name count wall cpu)
       spans);
  Buffer.contents buffer

let summary (report : Engine.report) =
  let ctx = report.Engine.context in
  let outcome = report.Engine.outcome in
  let stats = Hb_netlist.Stats.compute ctx.Context.design in
  let settling =
    Passes.settling_times ctx.Context.passes ~table:ctx.Context.table
  in
  let buffer = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  add "design: %s\n" ctx.Context.design.Hb_netlist.Design.design_name;
  add "cells: %d (%d combinational, %d synchronising), nets: %d\n"
    stats.Hb_netlist.Stats.cells stats.Hb_netlist.Stats.combinational
    stats.Hb_netlist.Stats.synchronisers stats.Hb_netlist.Stats.nets;
  add "clock period: %g ns, clock edges: %d\n"
    ctx.Context.system.Hb_clock.System.overall_period
    (Array.length (Hb_clock.System.edges ctx.Context.system));
  add "elements after replication: %d, clusters: %d\n"
    (Elements.count ctx.Context.elements)
    (Array.length ctx.Context.table.Cluster.clusters);
  add "analysis passes: %d minimum (per-source-edge accounting would need %d)\n"
    settling.Passes.minimized_passes settling.Passes.naive_settling_times;
  (match outcome.Algorithm1.status with
   | Algorithm1.Meets_timing -> add "verdict: system behaves as intended\n"
   | Algorithm1.Slow_paths -> add "verdict: TOO-SLOW paths present\n");
  add "worst slack: %s\n" (Hb_util.Time.to_string outcome.Algorithm1.final.Slacks.worst);
  add "algorithm 1 cycles: %d forward, %d backward%s\n"
    outcome.Algorithm1.forward_cycles outcome.Algorithm1.backward_cycles
    (if outcome.Algorithm1.capped then " (CAPPED)" else "");
  (match report.Engine.constraints with
   | Some times ->
     add "algorithm 2 cycles: %d backward-snatch, %d forward-snatch\n"
       times.Algorithm2.snatch_backward_cycles
       times.Algorithm2.snatch_forward_cycles
   | None -> ());
  (match report.Engine.hold_violations with
   | [] -> add "supplementary (min-delay) constraints: all satisfied\n"
   | worst :: _ as violations ->
     add "supplementary (min-delay) VIOLATIONS: %d (worst %s at %s)\n"
       (List.length violations)
       (Hb_util.Time.to_string worst.Holdcheck.margin)
       worst.Holdcheck.label);
  add "cpu: %.4f s pre-process, %.4f s analysis, %.4f s constraints\n"
    report.Engine.timings.Engine.preprocess_seconds
    report.Engine.timings.Engine.analysis_seconds
    report.Engine.timings.Engine.constraints_seconds;
  add "wall: %.4f s pre-process, %.4f s analysis, %.4f s constraints\n"
    report.Engine.timings.Engine.preprocess_wall_seconds
    report.Engine.timings.Engine.analysis_wall_seconds
    report.Engine.timings.Engine.constraints_wall_seconds;
  (match report.Engine.timings.Engine.peak_rss_bytes with
   | Some bytes -> add "peak rss: %.1f MB\n" (float_of_int bytes /. 1048576.0)
   | None -> ());
  if ctx.Context.config.Config.telemetry then
    Buffer.add_string buffer (metrics_section ());
  Buffer.contents buffer

let paths_report ctx slacks ~limit =
  let paths = Paths.worst_paths ctx slacks ~limit in
  if paths = [] then "no constrained paths\n"
  else
    String.concat "\n"
      (List.map (fun p -> Format.asprintf "%a" (Paths.pp ctx) p) paths)
    ^ "\n"

let constraints_report ctx times ~limit =
  let constraints = Algorithm2.module_constraints ctx times in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let constraints = take limit constraints in
  if constraints = [] then "no modules on too-slow paths\n"
  else begin
    let pin_times pairs =
      String.concat " "
        (List.map (fun (pin, t) -> Printf.sprintf "%s@%.3f" pin t) pairs)
    in
    let rows =
      List.map
        (fun (c : Algorithm2.module_constraint) ->
           [ c.Algorithm2.inst_name;
             Printf.sprintf "%.3f" c.Algorithm2.slack;
             pin_times c.Algorithm2.input_ready;
             pin_times c.Algorithm2.output_required ])
        constraints
    in
    Hb_util.Table.render
      ~header:[ "module"; "slack"; "input ready (ns)"; "output required (ns)" ]
      rows
    ^ "\n"
  end

let slack_histogram (slacks : Slacks.t) ~buckets =
  let finite = ref [] in
  Array.iter
    (fun s -> if Hb_util.Time.is_finite s then finite := s :: !finite)
    slacks.Slacks.element_input_slack;
  match !finite with
  | [] -> "no finite endpoint slacks\n"
  | values ->
    let lo = List.fold_left Hb_util.Time.min Hb_util.Time.infinity values in
    let hi = List.fold_left Hb_util.Time.max Hb_util.Time.neg_infinity values in
    let span = if hi -. lo <= 0.0 then 1.0 else hi -. lo in
    let counts = Array.make buckets 0 in
    List.iter
      (fun v ->
         let b = int_of_float (float_of_int buckets *. (v -. lo) /. span) in
         let b = Stdlib.min (buckets - 1) (Stdlib.max 0 b) in
         counts.(b) <- counts.(b) + 1)
      values;
    let buffer = Buffer.create 256 in
    Array.iteri
      (fun i count ->
         let from = lo +. (span *. float_of_int i /. float_of_int buckets) in
         let until = lo +. (span *. float_of_int (i + 1) /. float_of_int buckets) in
         Buffer.add_string buffer
           (Printf.sprintf "[%8.3f, %8.3f) %5d %s\n" from until count
              (String.make (Stdlib.min 60 count) '#')))
      counts;
    Buffer.contents buffer

let endpoint_report (ctx : Context.t) ~endpoint =
  match Paths.critical_path ctx ~endpoint with
  | None -> "endpoint has no constrained path\n"
  | Some path ->
    let design = ctx.Context.design in
    let elements = ctx.Context.elements in
    let buffer = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
    let start = Elements.element elements path.Paths.start_element in
    let finish = Elements.element elements path.Paths.end_element in
    let edge_to_string = function
      | Some e -> Hb_clock.Edge.to_string e
      | None -> "-"
    in
    add "Endpoint: %s  closure %s %+.3f ns\n" finish.Hb_sync.Element.label
      (edge_to_string finish.Hb_sync.Element.closure_edge)
      (Hb_sync.Element.closure_offset finish);
    add "Launch:   %s  assertion %s %+.3f ns\n" start.Hb_sync.Element.label
      (edge_to_string start.Hb_sync.Element.assertion_edge)
      (Hb_sync.Element.assertion_offset start);
    add "Pass:     cluster %d, cut %d\n\n" path.Paths.cluster path.Paths.cut;
    let previous = ref None in
    let rows =
      List.map
        (fun (hop : Paths.hop) ->
           let net_name =
             (Hb_netlist.Design.net design hop.Paths.net)
               .Hb_netlist.Design.net_name
           in
           let stage =
             match hop.Paths.via with
             | None -> "(launch)"
             | Some inst ->
               let record = Hb_netlist.Design.instance design inst in
               Printf.sprintf "%s (%s)" record.Hb_netlist.Design.inst_name
                 record.Hb_netlist.Design.cell.Hb_cell.Cell.name
           in
           let increment =
             match !previous with
             | None -> ""
             | Some t -> Printf.sprintf "%+.3f" (hop.Paths.at -. t)
           in
           previous := Some hop.Paths.at;
           [ stage; net_name; increment; Printf.sprintf "%.3f" hop.Paths.at ])
        path.Paths.hops
    in
    Buffer.add_string buffer
      (Hb_util.Table.render
         ~header:[ "stage"; "net"; "incr ns"; "arrival ns" ]
         ~align:Hb_util.Table.[ Left; Left; Right; Right ]
         rows);
    let arrival =
      match List.rev path.Paths.hops with
      | hop :: _ -> hop.Paths.at
      | [] -> 0.0
    in
    add "\n\narrival  %10.3f ns\nrequired %10.3f ns\nslack    %10.3f ns%s\n"
      arrival
      (arrival +. path.Paths.slack)
      path.Paths.slack
      (if Hb_util.Time.le path.Paths.slack 0.0 then "  (VIOLATED)" else "");
    Buffer.contents buffer

let slow_nets (ctx : Context.t) (slacks : Slacks.t) =
  let net_slack = slacks.Slacks.net_slack in
  let eps = Hb_util.Time.eps in
  let names = ref [] in
  for net = Array.length net_slack - 1 downto 0 do
    let s = net_slack.(net) in
    (* Hb_util.Time.is_finite and [Hb_util.Time.le s 0.0], spelled out: a
       call across modules would box [s] under [-opaque]. *)
    if s -. s = 0.0 && (s +. eps < 0.0 || Float.abs s <= eps || s = 0.0) then
      names :=
        (Hb_netlist.Design.net ctx.Context.design net)
          .Hb_netlist.Design.net_name
        :: !names
  done;
  !names
