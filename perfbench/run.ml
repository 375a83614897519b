(* One run of one workload: set up, warm up, measure for the given
   seconds, check the answers, and print the metrics — every end-to-end
   metric untraced, or every per-layer metric from a traced run. Their
   names and units must match BENCHMARK.json, which [--check] verifies. *)

module Telemetry = Hb_util.Telemetry
module Json = Hb_util.Json

(* Set-ups per untraced run: at least [min_setups], and more, up to
   [max_setups], while together they take less than [setup_budget_s]. *)
let min_setups = 3
let max_setups = 20
let setup_budget_s = 3.0

(* [--prepare] runs in this child: the input files for [w]. The child
   prints the seconds it spent making them, so that a set-up's time
   leaves out the cost of starting a process, which is the harness's and
   not the set-up's. *)
let prepare_in_child (w : Workloads.t) ~dir =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--prepare"; w.Workloads.name; "--dir"; dir |]
  in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some seconds -> seconds
  | _ ->
    failwith
      (Printf.sprintf "preparing the %s inputs failed" w.Workloads.name)

let result_json ~correct ~attempted ~failed metrics =
  let value v = Json.Number (if Float.is_finite v then v else 0.0) in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Number (float_of_int attempted));
         ("failed", Json.Number (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit, v) ->
                   ( name,
                     Json.Obj [ ("value", value v); ("unit", Json.String unit) ]
                   ))
                metrics) ) ])

let print_table header rows =
  Hb_util.Table.print ~header
    ~align:
      (List.mapi
         (fun i _ -> Hb_util.Table.(if i = 0 then Left else Right))
         header)
    rows

(* The per-layer metrics of a traced run. [ops] is the snapshot taken
   when the op loop ended, [parts_start] the one once the parts were set
   up, and [all] the one after the parts. A span or a counter is per op
   when the ops recorded it, else per part. *)
let layer_metrics ~(ops : Telemetry.snapshot)
    ~(parts_start : Telemetry.snapshot) ~(all : Telemetry.snapshot)
    ~(loop : Harness.loop) ~parts ~baseline_ms ~(ledger : Ledger.t) =
  let n_ops = float_of_int (Stdlib.max 1 (Harness.completed loop)) in
  let counter (snap : Telemetry.snapshot) name =
    Option.value ~default:0 (List.assoc_opt name snap.Telemetry.counters)
  in
  let rate name =
    let in_ops = counter ops name in
    if in_ops > 0 then float_of_int in_ops /. n_ops
    else
      float_of_int (counter all name - counter parts_start name)
      /. float_of_int (Stdlib.max 1 parts)
  in
  let span name =
    match Ledger.per_tag_median ~kind:"op" all name with
    | 0.0 -> Ledger.per_tag_median ~kind:"part" all name
    | v -> v
  in
  let ms name = 1000.0 *. span name in
  let queue_wait q =
    match
      List.find_opt
        (fun (h : Telemetry.histogram_snapshot) ->
           String.equal h.Telemetry.h_name "serve.queue_wait_seconds")
        ops.Telemetry.histograms
    with
    | None -> 0.0
    | Some h ->
      Option.fold ~none:0.0 ~some:(fun s -> 1000.0 *. s)
        (Telemetry.quantile ~bounds:h.Telemetry.upper_bounds
           ~counts:h.Telemetry.bucket_counts q)
  in
  let hits = rate "slacks.cluster_cache_hits"
  and evaluated = rate "slacks.clusters_evaluated" in
  let serve_analyse = ms "serve.analyse" in
  let per_op n = float_of_int n /. n_ops in
  let s = "s" and count = "count" and mb = "MB" in
  [ ("parse.s", s, span "parse");
    ("parse.alloc_mb", mb, Harness.mb (rate "bench.parse_alloc_bytes"));
    ("elements.build_s", s, span "elements.build");
    ("cluster.extract_s", s, span "cluster.extract");
    ("cluster.clusters", count, rate "bench.clusters");
    ("passes.build_s", s, span "passes.build");
    ("passes.total", count, rate "bench.passes");
    ("context.make_s", s, span "engine.preprocess");
    ("algorithm1.run_s", s, span "engine.analysis");
    ( "algorithm1.cycles", count,
      rate "algorithm1.complete_forward_transfers"
      +. rate "algorithm1.complete_backward_transfers" );
    ( "algorithm1.relaxation_iterations", count,
      rate "algorithm1.relaxation_iterations" );
    ("slacks.final_s", s, span "slacks.final");
    ("slacks.clusters_evaluated", count, evaluated);
    ( "slacks.cache_hit_ratio", "ratio",
      if hits +. evaluated > 0.0 then hits /. (hits +. evaluated) else 0.0 );
    ("macro.extractions", count, rate "macro.extractions");
    ("macro.evaluations", count, rate "macro.evaluations");
    ("algorithm2.run_s", s, span "engine.constraints");
    ("holdcheck.check_s", s, span "engine.holdcheck");
    ("holdcheck.alloc_mb", mb, Harness.mb (rate "bench.holdcheck_alloc_bytes"));
    ("paths.worst_paths_s", s, span "paths.worst_paths");
    ("paths.states_expanded", count, rate "paths.states_expanded");
    ("json_export.report_s", s, span "json_export.report");
    ("json_export.bytes", "bytes", rate "bench.json_export_bytes");
    ("session.apply_s", s, span "session.apply");
    ("session.analyse_s", s, span "session.analyse");
    ( "session.clusters_invalidated", count,
      rate "bench.clusters_invalidated" );
    ("session.clusters_rebuilt", count, rate "bench.clusters_rebuilt");
    ("session.report_reuses", count, rate "session.report_reuses");
    ("snapshot.save_s", s, span "snapshot.save");
    ("snapshot.restore_s", s, span "snapshot.restore");
    ("snapshot.bytes", "bytes", rate "bench.snapshot_bytes");
    ( "snapshot.restore_alloc_mb", mb,
      Harness.mb (rate "bench.restore_alloc_bytes") );
    ("serve.queue_wait_p50_ms", "ms", queue_wait 0.5);
    ("serve.queue_wait_p99_ms", "ms", queue_wait 0.99);
    ("serve.edit_ms", "ms", ms "serve.edit");
    ("serve.analyse_ms", "ms", serve_analyse);
    ("serve.paths_ms", "ms", ms "serve.paths");
    ( "serve.envelope_ms", "ms",
      if serve_analyse > 0.0 then
        serve_analyse -. ms "session.analyse" -. ms "json_export.report"
      else 0.0 );
    ( "gc.minor_collections", count,
      per_op loop.Harness.gc.Harness.minor_collections );
    ( "gc.major_collections", count,
      per_op loop.Harness.gc.Harness.major_collections );
    ("ledger.other_share", "ratio", ledger.Ledger.other_share);
    ("ledger.op_ms", "ms", ledger.Ledger.op_ms);
    ( "trace_overhead_pct", "%",
      100.0
      *. ((Harness.median loop.Harness.latencies_ms /. baseline_ms) -. 1.0) )
  ]

(* The traced run: half the time untraced (the overhead baseline), half
   traced, then the parts for up to a quarter of it. Writes the Chrome
   trace and the ledger under [Harness.out_dir]. *)
let traced (w : Workloads.t) (inst : Workloads.instance) ~seed ~seconds =
  let loop seconds =
    Harness.closed_loop ~clients:w.Workloads.clients ~seconds
      inst.Workloads.op
  in
  let baseline = loop (seconds /. 2.0) in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let traced_loop = loop (seconds /. 2.0) in
  let ops = Telemetry.snapshot () in
  let deadline = Harness.now () +. (seconds /. 4.0) in
  let part = inst.Workloads.parts () in
  let parts_start = Telemetry.snapshot () in
  let parts = ref 0 in
  while
    !parts = 0 || (!parts < 20 && Harness.now () < deadline)
  do
    Telemetry.with_tag (Printf.sprintf "part:%d" !parts) part;
    incr parts
  done;
  let all = Telemetry.snapshot () in
  Telemetry.set_enabled false;
  let ledger = Ledger.make all in
  let base =
    Filename.concat Harness.out_dir
      (Printf.sprintf "%s-seed%d" w.Workloads.name seed)
  in
  Harness.write_file (base ^ ".trace.json") (Telemetry.trace_json all);
  let ledger_text = Ledger.render ~workload:w.Workloads.name ledger in
  Harness.write_file (base ^ ".ledger.md") ledger_text;
  print_string ledger_text;
  let metrics =
    layer_metrics ~ops ~parts_start ~all ~loop:traced_loop ~parts:!parts
      ~baseline_ms:(Harness.median baseline.Harness.latencies_ms) ~ledger
  in
  print_newline ();
  print_table [ "layer metric"; "unit"; "value" ]
    (List.map (fun (n, u, v) -> [ n; u; Harness.fmt v ]) metrics);
  ( metrics,
    baseline.Harness.attempted + traced_loop.Harness.attempted,
    baseline.Harness.failed + traced_loop.Harness.failed )

(* The measured loop of an untraced run and its metrics, every
   end-to-end one but [setup_s]. The op latency is printed, with its
   quartiles and tail, but is no metric: see README.md. *)
let untraced (w : Workloads.t) (inst : Workloads.instance) ~seconds =
  let loop =
    Harness.closed_loop ~clients:w.Workloads.clients ~seconds
      inst.Workloads.op
  in
  let done_ops = Harness.completed loop in
  let latencies = loop.Harness.latencies_ms in
  let peaks = loop.Harness.peak_rss_mb in
  let alloc_mb =
    Harness.mb
      (loop.Harness.gc.Harness.alloc_bytes
       /. float_of_int (Stdlib.max 1 done_ops))
  in
  let row name unit values =
    let q1, q3 = Harness.quartiles values in
    [ name; unit; Harness.fmt (Harness.median values);
      string_of_int (List.length values); Harness.fmt q1; Harness.fmt q3 ]
  in
  print_table [ "metric"; "unit"; "median"; "samples"; "q1"; "q3" ]
    [ row "op latency (printed only)" "ms" latencies;
      row "peak_rss_mb" "MB" peaks;
      [ "alloc_mb"; "MB"; Harness.fmt alloc_mb; string_of_int done_ops; "-";
        "-" ] ];
  (* The tail, with how many samples lie beyond each percentile. *)
  List.iter
    (fun p ->
       let v = Harness.percentile p latencies in
       Printf.printf "op p%d: %s ms (%d of %d samples beyond)\n" p
         (Harness.fmt v)
         (List.length (List.filter (fun x -> x > v) latencies))
         (List.length latencies))
    [ 90; 99 ];
  ( [ ("peak_rss_mb", "MB", Harness.median peaks);
      ("alloc_mb", "MB", alloc_mb) ],
    loop.Harness.attempted,
    loop.Harness.failed )

(* Exit codes: 0 pass, 1 an op or a correctness gate failed, 2 the run
   could not be made (raised before printing a result). With [seconds]
   ≤ 0 a run sets up once and makes one op per client. *)
let run (w : Workloads.t) ~seed ~seconds ~trace =
  let once = seconds <= 0.0 in
  let dir =
    Filename.concat Harness.out_dir
      (Printf.sprintf "work-%s-%d" w.Workloads.name (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> Harness.remove_tree dir) (fun () ->
      let setup () =
        Gc.compact ();
        let prepare_s = prepare_in_child w ~dir in
        let inst, load_s =
          Harness.timed (fun () -> w.Workloads.load ~seed ~dir)
        in
        (inst, prepare_s +. load_s)
      in
      let inst, first_setup_s = setup () in
      let metrics, attempted, failed, problems =
        Fun.protect ~finally:inst.Workloads.close (fun () ->
            (* Warm-up: one op per client, not measured. *)
            let warm =
              Harness.closed_loop ~clients:w.Workloads.clients ~seconds:0.0
                inst.Workloads.op
            in
            let metrics, attempted, failed =
              if trace then traced w inst ~seed ~seconds
              else untraced w inst ~seconds
            in
            Gc.compact ();
            (metrics, attempted, failed + warm.Harness.failed,
             inst.Workloads.check ()))
      in
      (* The other set-ups of an untraced run come after its measured
         region: the domains, garbage and allocator arenas a set-up
         leaves behind moved the what-if workload's peak RSS by up to
         10 MB. *)
      let metrics =
        if trace then metrics
        else begin
          let rec setups times =
            let n = List.length times in
            if
              once
              || n >= max_setups
              || (n >= min_setups
                  && List.fold_left ( +. ) 0.0 times >= setup_budget_s)
            then times
            else begin
              let inst, dt = setup () in
              inst.Workloads.close ();
              setups (dt :: times)
            end
          in
          let times = setups [ first_setup_s ] in
          let q1, q3 = Harness.quartiles times in
          Printf.printf "setup_s: %s s, median of %d set-ups [q1 %s, q3 %s]\n"
            (Harness.fmt (Harness.median times))
            (List.length times) (Harness.fmt q1) (Harness.fmt q3);
          ("setup_s", "s", Harness.median times) :: metrics
        end
      in
      List.iter
        (fun p -> Printf.printf "GATE FAILED %s: %s\n" w.Workloads.name p)
        problems;
      let correct = problems = [] && failed = 0 in
      Printf.printf "%s seed %d: %s\n" w.Workloads.name seed
        (if correct then "all correctness gates pass" else "INCORRECT");
      print_endline (result_json ~correct ~attempted ~failed metrics);
      if correct then 0 else 1)
