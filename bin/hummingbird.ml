(* Hummingbird command-line interface.

   Subcommands:
     analyse   — timing-analyse a .hbn netlist against a .hbc clock spec
     stats     — print design statistics
     passes    — show the per-cluster analysis-pass plan
     generate  — emit a built-in benchmark design as .hbn/.hbc files
     optimise  — run the Algorithm 3 analysis/re-design loop
     whatif    — sweep the overall clock period and report worst slack
     minperiod — bisect the smallest clock period that meets timing
     critical  — enumerate the K worst paths into one synchroniser
     corners   — analyse at fast/nominal/slow delay corners
     timing    — per-endpoint timing report (edges and hops)
     lint      — design-rule checks
     serve     — JSON-lines daemon over a registry of resident sessions
     snapshot  — save a preprocessed session to a file, or restore one
     validate  — golden QoR gate and differential fuzz *)

open Cmdliner

let library = Hb_cell.Library.default ()

(* Every file read goes through [Error.reading], so a reader's error
   names its file. *)
let load_design path =
  Hb_sta.Error.reading path (fun () ->
      if Filename.check_suffix path ".blif" then
        Hb_netlist.Blif.parse_file ~library path
      else Hb_netlist.Hbn_format.parse_file ~library path)

let load_clocks path =
  Hb_sta.Error.reading path (fun () -> Hb_clock.System.parse_file path)

let log_level_arg =
  Arg.(value & opt string "off"
       & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Structured-log threshold: off, error, warn, info or debug.")

let log_file_arg =
  Arg.(value & opt (some string) None
       & info [ "log-file" ] ~docv:"FILE"
           ~doc:"Write log events to $(docv) as JSON lines instead of \
                 human-readable lines on stderr.")

let setup_logging level file =
  (match Hb_util.Log.level_of_string level with
   | Some l -> Hb_util.Log.set_level l
   | None ->
     Printf.eprintf "error: unknown log level %s (off|error|warn|info|debug)\n"
       level;
     exit 1);
  match file with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    at_exit (fun () -> try close_out oc with Sys_error _ -> ());
    Hb_util.Log.set_sink_channel ~format:Hb_util.Log.Json oc

let netlist_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "n"; "netlist" ] ~docv:"FILE.hbn" ~doc:"Netlist to analyse.")

let clocks_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "c"; "clocks" ] ~docv:"FILE.hbc" ~doc:"Clock waveform description.")

(* One classifier for every analysis failure (see Hb_sta.Error); anything
   it does not recognise is a genuine bug and keeps its backtrace. *)
let handle_errors f =
  try f () with
  | e ->
    (match Hb_sta.Error.of_exn e with
     | Some err ->
       Printf.eprintf "%s\n" (Hb_sta.Error.to_string err);
       exit 1
     | None -> raise e)

(* ------------------------------------------------------------------ *)
(* analyse                                                            *)
(* ------------------------------------------------------------------ *)

let timing_arg =
  Arg.(value & opt (some file) None
       & info [ "t"; "timing" ] ~docv:"FILE.hbt"
           ~doc:"Timing constraints: port references and analysis knobs.")

let load_config ?jobs timing =
  let config =
    match timing with
    | None -> Hb_sta.Config.default
    | Some path ->
      Hb_sta.Error.reading path (fun () ->
          Hb_sta.Config_format.parse_file path)
  in
  match jobs with
  | None -> config
  | Some jobs when jobs >= 1 -> { config with Hb_sta.Config.parallel_jobs = jobs }
  | Some jobs ->
    Printf.eprintf "error: --jobs must be >= 1 (got %d)\n" jobs;
    exit 1

let analyse_cmd =
  let run netlist clocks paths constraints flag_file rise_fall macro timing
      dot delay_model annotations json jobs telemetry trace log_level
      log_file =
    handle_errors (fun () ->
        setup_logging log_level log_file;
        let design = load_design netlist in
        let system = load_clocks clocks in
        (* A flag given on the command line outranks the timing file:
           -j in [load_config], the switches here. --trace needs the
           spans, so it implies --telemetry. *)
        let config = load_config ?jobs timing in
        let config =
          { config with
            Hb_sta.Config.rise_fall = rise_fall || config.Hb_sta.Config.rise_fall;
            macro = macro || config.Hb_sta.Config.macro;
            telemetry =
              telemetry || trace <> None || config.Hb_sta.Config.telemetry }
        in
        let base_delays =
          match Hb_sta.Delays.of_name delay_model, delay_model with
          | Some delays, _ -> delays
          | None, "rc-chain" ->
            Hb_sta.Delays.rc
              ~parameters:
                { Hb_rc.Wire_model.default with
                  Hb_rc.Wire_model.topology = Hb_rc.Wire_model.Chain }
              ()
          | None, other ->
            Printf.eprintf "unknown delay model %s (lumped|rc|rc-chain)\n" other;
            exit 1
        in
        let delays =
          match annotations with
          | None -> base_delays
          | Some path ->
            let annotation =
              Hb_sta.Error.reading path (fun () ->
                  Hb_sta.Annotation.parse_file path)
            in
            (match Hb_sta.Annotation.unused annotation ~design with
             | [] -> ()
             | stale ->
               Printf.eprintf "warning: annotations for unknown instances: %s\n"
                 (String.concat ", " stale));
            Hb_sta.Annotation.apply annotation ~base:base_delays
        in
        let report = Hb_sta.Engine.analyse ~design ~system ~config ~delays () in
        if json then
          print_string (Hb_sta.Json_export.report ~paths report)
        else print_string (Hb_sta.Report.summary report);
        let ctx = report.Hb_sta.Engine.context in
        let slacks = report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final in
        if paths > 0 && not json then begin
          print_newline ();
          print_string (Hb_sta.Report.paths_report ctx slacks ~limit:paths)
        end;
        (match report.Hb_sta.Engine.constraints with
         | Some times when constraints > 0 ->
           print_newline ();
           print_string
             (Hb_sta.Report.constraints_report ctx times ~limit:constraints)
         | Some _ | None -> ());
        (match flag_file with
         | Some path ->
           let oc = open_out path in
           List.iter
             (fun net -> output_string oc (net ^ "\n"))
             (Hb_sta.Report.slow_nets ctx slacks);
           close_out oc;
           Printf.printf "slow-path nets written to %s\n" path
         | None -> ());
        (match dot with
         | Some path ->
           Hb_sta.Dot_export.write_file ~path
             (Hb_sta.Dot_export.design_graph ctx slacks);
           Printf.printf "design graph written to %s\n" path
         | None -> ());
        (match trace with
         | Some path ->
           Hb_util.Text.write_atomic path
             (Hb_util.Telemetry.trace_json (Hb_util.Telemetry.snapshot ()));
           Printf.eprintf "trace written to %s\n" path
         | None -> ());
        match report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.status with
        | Hb_sta.Algorithm1.Meets_timing -> exit 0
        | Hb_sta.Algorithm1.Slow_paths -> exit 2)
  in
  let paths =
    Arg.(value & opt int 5 & info [ "paths" ] ~docv:"N"
           ~doc:"Print the $(docv) most critical paths (0 disables).")
  in
  let constraints =
    Arg.(value & opt int 0 & info [ "constraints" ] ~docv:"N"
           ~doc:"Print re-synthesis constraints for the $(docv) worst modules.")
  in
  let flag_file =
    Arg.(value & opt (some string) None & info [ "flag-out" ] ~docv:"FILE"
           ~doc:"Write the names of nets on too-slow paths to $(docv).")
  in
  let rise_fall =
    Arg.(value & flag & info [ "rise-fall" ]
           ~doc:"Propagate rising and falling arrivals separately (less \
                 pessimistic through inverting chains).")
  in
  let macro =
    Arg.(value & flag & info [ "macro" ]
           ~doc:"Condense verified clusters into interface timing macros \
                 during Algorithm 1 relaxation (scalar mode only; the \
                 final slacks are always computed at full detail and are \
                 bit-identical to a flat run).")
  in
  let dot =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Write a Graphviz rendering with slow paths highlighted.")
  in
  let delay_model =
    Arg.(value & opt string "lumped" & info [ "delay-model" ] ~docv:"MODEL"
           ~doc:"Component-delay estimator: lumped, rc or rc-chain.")
  in
  let annotations =
    Arg.(value & opt (some file) None & info [ "delays" ] ~docv:"FILE.hbd"
           ~doc:"Per-instance delay annotations overlaying the estimator.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the machine-readable JSON report instead of text.")
  in
  let jobs =
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Evaluate clusters on $(docv) domains (1 = sequential; \
                 default: the timing file's parallel-jobs, else all cores).")
  in
  let telemetry =
    Arg.(value & flag & info [ "telemetry" ]
           ~doc:"Record internal work counters and phase spans; adds a \
                 metrics section to the report (a \"metrics\" block with \
                 $(b,--json)).")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the phase spans as Chrome trace-event JSON to \
                 $(docv) (open in chrome://tracing or Perfetto; one track \
                 per domain). Implies $(b,--telemetry).")
  in
  Cmd.v
    (Cmd.info "analyse"
       ~doc:"Run the full timing analysis (exit 2 when too-slow paths exist)")
    Term.(const run $ netlist_arg $ clocks_arg $ paths $ constraints $ flag_file
          $ rise_fall $ macro $ timing_arg $ dot $ delay_model $ annotations
          $ json $ jobs $ telemetry $ trace $ log_level_arg $ log_file_arg)

(* ------------------------------------------------------------------ *)
(* stats                                                              *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let run netlist =
    handle_errors (fun () ->
        let design = load_design netlist in
        Format.printf "%a@." Hb_netlist.Stats.pp
          (Hb_netlist.Stats.compute design))
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print design statistics")
    Term.(const run $ netlist_arg)

(* ------------------------------------------------------------------ *)
(* passes                                                             *)
(* ------------------------------------------------------------------ *)

let passes_cmd =
  let run netlist clocks =
    handle_errors (fun () ->
        let design = load_design netlist in
        let system = load_clocks clocks in
        let ctx = Hb_sta.Context.make ~design ~system () in
        let passes = ctx.Hb_sta.Context.passes in
        let table = ctx.Hb_sta.Context.table in
        let settling = Hb_sta.Passes.settling_times passes ~table in
        let rows =
          List.map
            (fun (id, minimized, naive) ->
               let cluster =
                 ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters.(id)
               in
               [ string_of_int id;
                 string_of_int (List.length cluster.Hb_sta.Cluster.members);
                 string_of_int (Array.length cluster.Hb_sta.Cluster.inputs);
                 string_of_int (Array.length cluster.Hb_sta.Cluster.outputs);
                 string_of_int minimized;
                 string_of_int naive ])
            (Hb_sta.Passes.cluster_settling_times passes ~table)
        in
        Hb_util.Table.print
          ~header:[ "cluster"; "gates"; "inputs"; "outputs"; "passes"; "per-edge" ]
          rows;
        Printf.printf "total: %d minimum passes (per-edge accounting: %d)\n"
          settling.Hb_sta.Passes.minimized_passes
          settling.Hb_sta.Passes.naive_settling_times)
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:"Show the minimum analysis-pass plan per cluster (paper Section 7)")
    Term.(const run $ netlist_arg $ clocks_arg)

(* ------------------------------------------------------------------ *)
(* generate                                                           *)
(* ------------------------------------------------------------------ *)

let generators = Hb_workload.Catalog.generators

let generate_cmd =
  let run which out_prefix =
    handle_errors (fun () ->
        match List.assoc_opt which generators with
        | None ->
          Printf.eprintf "unknown design %s (expected: %s)\n" which
            (String.concat ", " (List.map fst generators));
          exit 1
        | Some make ->
          let design, system = make () in
          let hbn = out_prefix ^ ".hbn" and hbc = out_prefix ^ ".hbc" in
          Hb_netlist.Hbn_format.write_file design hbn;
          Hb_util.Text.write_atomic hbc (Hb_clock.System.to_string system);
          Printf.printf "wrote %s and %s\n" hbn hbc)
  in
  let which =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DESIGN"
             ~doc:(Printf.sprintf "One of: %s."
                     (String.concat ", " Hb_workload.Catalog.names)))
  in
  let out_prefix =
    Arg.(value & opt string "design" & info [ "o"; "output" ] ~docv:"PREFIX"
           ~doc:"Output file prefix.")
  in
  Cmd.v (Cmd.info "generate" ~doc:"Emit a built-in benchmark design")
    Term.(const run $ which $ out_prefix)

(* ------------------------------------------------------------------ *)
(* optimise                                                           *)
(* ------------------------------------------------------------------ *)

let optimise_cmd =
  let module Json = Hb_util.Json in
  let step_json (s : Hb_resynth.Loop.step) =
    Json.Obj
      [ ("iteration", Json.Number (float_of_int s.Hb_resynth.Loop.iteration));
        ("worst_slack", Json.Number s.Hb_resynth.Loop.worst_slack);
        ( "total_negative_slack",
          Json.Number s.Hb_resynth.Loop.total_negative_slack );
        ( "slow_endpoints",
          Json.Number (float_of_int s.Hb_resynth.Loop.slow_endpoints) );
        ("delta_worst_slack", Json.Number s.Hb_resynth.Loop.delta_worst_slack);
        ("area", Json.Number s.Hb_resynth.Loop.area);
        ( "changed",
          Json.List
            (List.map
               (fun (c : Hb_resynth.Speedup.change) ->
                  Json.Obj
                    [ ("instance", Json.String c.Hb_resynth.Speedup.inst_name);
                      ("from", Json.String c.Hb_resynth.Speedup.old_cell);
                      ("to", Json.String c.Hb_resynth.Speedup.new_cell);
                    ])
               s.Hb_resynth.Loop.changed) );
      ]
  in
  let run netlist clocks iterations out json log_level log_file =
    handle_errors (fun () ->
        setup_logging log_level log_file;
        let design = load_design netlist in
        let system = load_clocks clocks in
        let result =
          Hb_resynth.Loop.optimise ~design ~system ~library
            ~max_iterations:iterations ()
        in
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  [ ( "schema_version",
                      Json.Number
                        (float_of_int Hb_sta.Json_export.schema_version) );
                    ("met_timing", Json.Bool result.Hb_resynth.Loop.met_timing);
                    ( "iterations",
                      Json.Number
                        (float_of_int result.Hb_resynth.Loop.iterations) );
                    ( "journal",
                      Json.List
                        (List.map step_json result.Hb_resynth.Loop.history) );
                    ( "final",
                      Json.Obj
                        [ ( "worst_slack",
                            Json.Number
                              result.Hb_resynth.Loop.final_worst_slack );
                          ( "total_negative_slack",
                            Json.Number
                              result.Hb_resynth.Loop.final_total_negative_slack );
                          ( "slow_endpoints",
                            Json.Number
                              (float_of_int
                                 result.Hb_resynth.Loop.final_slow_endpoints) );
                          ("area", Json.Number result.Hb_resynth.Loop.final_area);
                        ] );
                  ]))
        else begin
          List.iter
            (fun (s : Hb_resynth.Loop.step) ->
               Printf.printf
                 "iteration %d: worst slack %.3f ns (%+.3f), tns %.3f ns, %d \
                  slow endpoints, area %.1f, %d cells upsized\n"
                 s.Hb_resynth.Loop.iteration s.Hb_resynth.Loop.worst_slack
                 s.Hb_resynth.Loop.delta_worst_slack
                 s.Hb_resynth.Loop.total_negative_slack
                 s.Hb_resynth.Loop.slow_endpoints
                 s.Hb_resynth.Loop.area
                 (List.length s.Hb_resynth.Loop.changed))
            result.Hb_resynth.Loop.history;
          Printf.printf
            "final: worst slack %.3f ns, tns %.3f ns, %d slow endpoints, \
             area %.1f, timing %s\n"
            result.Hb_resynth.Loop.final_worst_slack
            result.Hb_resynth.Loop.final_total_negative_slack
            result.Hb_resynth.Loop.final_slow_endpoints
            result.Hb_resynth.Loop.final_area
            (if result.Hb_resynth.Loop.met_timing then "met" else "NOT met")
        end;
        (match out with
         | Some path ->
           Hb_netlist.Hbn_format.write_file result.Hb_resynth.Loop.design path;
           if not json then Printf.printf "optimised netlist written to %s\n" path
         | None -> ());
        if result.Hb_resynth.Loop.met_timing then exit 0 else exit 2)
  in
  let iterations =
    Arg.(value & opt int 50 & info [ "iterations" ] ~docv:"N"
           ~doc:"Iteration cap for the loop.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the optimised netlist to $(docv).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the QoR journal and final figures as one JSON document.")
  in
  Cmd.v
    (Cmd.info "optimise"
       ~doc:"Run the Algorithm 3 analysis/re-design loop (gate upsizing)")
    Term.(const run $ netlist_arg $ clocks_arg $ iterations $ out $ json
          $ log_level_arg $ log_file_arg)

(* ------------------------------------------------------------------ *)
(* whatif                                                             *)
(* ------------------------------------------------------------------ *)

let whatif_cmd =
  let run netlist clocks from_period to_period steps =
    handle_errors (fun () ->
        let design = load_design netlist in
        let system = load_clocks clocks in
        Printf.printf "period(ns)  worst-slack(ns)  verdict\n";
        for i = 0 to steps - 1 do
          let period =
            from_period
            +. (to_period -. from_period) *. float_of_int i
               /. float_of_int (Stdlib.max 1 (steps - 1))
          in
          (* Waveforms scale with the period so the duty cycle is kept. *)
          let scaled = Hb_sta.Minperiod.scaled_system system ~period in
          let ctx = Hb_sta.Context.make ~design ~system:scaled () in
          let outcome = Hb_sta.Algorithm1.run ctx in
          Printf.printf "%10.1f %16.3f  %s\n" period
            outcome.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst
            (match outcome.Hb_sta.Algorithm1.status with
             | Hb_sta.Algorithm1.Meets_timing -> "ok"
             | Hb_sta.Algorithm1.Slow_paths -> "TOO SLOW")
        done)
  in
  let from_period =
    Arg.(value & opt float 10.0 & info [ "from" ] ~docv:"NS" ~doc:"First period.")
  in
  let to_period =
    Arg.(value & opt float 100.0 & info [ "to" ] ~docv:"NS" ~doc:"Last period.")
  in
  let steps =
    Arg.(value & opt int 10 & info [ "steps" ] ~docv:"N" ~doc:"Sweep points.")
  in
  Cmd.v
    (Cmd.info "whatif"
       ~doc:"Sweep the clock period (keeping duty cycles) and report worst slack")
    Term.(const run $ netlist_arg $ clocks_arg $ from_period $ to_period $ steps)

let minperiod_cmd =
  let run netlist clocks tolerance =
    handle_errors (fun () ->
        let design = load_design netlist in
        let template = load_clocks clocks in
        let result =
          Hb_sta.Minperiod.search ~design ~template ~tolerance ()
        in
        Printf.printf
          "minimum period: %.3f ns (worst slack %.3f ns, %d analyses)\n"
          result.Hb_sta.Minperiod.min_period
          result.Hb_sta.Minperiod.worst_slack_at_min
          result.Hb_sta.Minperiod.evaluations)
  in
  let tolerance =
    Arg.(value & opt float 0.01 & info [ "tolerance" ] ~docv:"NS"
           ~doc:"Bisection tolerance in nanoseconds.")
  in
  Cmd.v
    (Cmd.info "minperiod"
       ~doc:"Bisect the smallest overall clock period that meets timing")
    Term.(const run $ netlist_arg $ clocks_arg $ tolerance)

(* The shared front of [critical] and [timing]: load, run Algorithm 1,
   and resolve [endpoint] to its element replicas. *)
let endpoint_replicas netlist clocks endpoint =
  let design = load_design netlist in
  let system = load_clocks clocks in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let _ = Hb_sta.Algorithm1.run ctx in
  let inst =
    match Hb_netlist.Design.find_instance design endpoint with
    | Some i -> i
    | None ->
      Printf.eprintf "no instance named %s\n" endpoint;
      exit 1
  in
  match
    Hashtbl.find_opt
      ctx.Hb_sta.Context.elements.Hb_sta.Elements.replicas_of_inst inst
  with
  | Some replicas -> (ctx, replicas)
  | None ->
    Printf.eprintf "%s is not a synchronising element\n" endpoint;
    exit 1

let endpoint_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"INSTANCE" ~doc:"Endpoint synchroniser instance name.")

let critical_cmd =
  let run netlist clocks endpoint k =
    handle_errors (fun () ->
        let ctx, replicas = endpoint_replicas netlist clocks endpoint in
        List.iter
          (fun paths ->
             List.iter
               (fun path ->
                  Format.printf "%a@." (Hb_sta.Paths.pp ctx) path)
               paths)
          (Hb_sta.Paths.enumerate_many ctx ~endpoints:replicas ~limit:k))
  in
  let k =
    Arg.(value & opt int 5 & info [ "k" ] ~docv:"N"
           ~doc:"Number of worst paths per replica.")
  in
  Cmd.v
    (Cmd.info "critical"
       ~doc:"Enumerate the K worst paths into one synchroniser's data input")
    Term.(const run $ netlist_arg $ clocks_arg $ endpoint_arg $ k)

let timing_cmd =
  let run netlist clocks endpoint =
    handle_errors (fun () ->
        let ctx, replicas = endpoint_replicas netlist clocks endpoint in
        List.iter
          (fun element ->
             print_string (Hb_sta.Report.endpoint_report ctx ~endpoint:element);
             print_newline ())
          replicas)
  in
  Cmd.v
    (Cmd.info "timing"
       ~doc:"Detailed per-endpoint timing report (launch/capture edges, hops)")
    Term.(const run $ netlist_arg $ clocks_arg $ endpoint_arg)

let lint_cmd =
  let run netlist =
    handle_errors (fun () ->
        let design = load_design netlist in
        let findings = Hb_netlist.Check.run design in
        if findings = [] then begin
          print_endline "no findings";
          exit 0
        end
        else begin
          List.iter
            (fun f -> Format.printf "%a@." Hb_netlist.Check.pp_finding f)
            findings;
          let errors =
            List.exists
              (fun f -> f.Hb_netlist.Check.severity = Hb_netlist.Check.Error)
              findings
          in
          exit (if errors then 2 else 0)
        end)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Design-rule checks (exit 2 when errors are found)")
    Term.(const run $ netlist_arg)

let corners_cmd =
  let run netlist clocks =
    handle_errors (fun () ->
        let design = load_design netlist in
        let system = load_clocks clocks in
        let report = Hb_sta.Corners.analyse ~design ~system () in
        print_endline (Hb_sta.Corners.to_table report);
        if report.Hb_sta.Corners.all_corners_met then exit 0 else exit 2)
  in
  Cmd.v
    (Cmd.info "corners"
       ~doc:"Analyse at fast/nominal/slow delay corners (exit 2 on any miss)")
    Term.(const run $ netlist_arg $ clocks_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run timeout socket telemetry trace prometheus metrics_file flight_file
      log_level log_file backlog max_clients workers queue max_sessions
      memory_budget_mb monitor slo_p99_ms slo_error_rate metrics_interval =
    handle_errors (fun () ->
        setup_logging log_level log_file;
        (match metrics_interval with
         | Some i when i <= 0.0 ->
           failwith "--metrics-interval must be positive"
         | Some _ when metrics_file = None ->
           failwith "--metrics-interval requires --metrics-file PATH"
         | _ -> ());
        let at_least lowest flag n =
          if n < lowest then
            failwith (Printf.sprintf "--%s must be >= %d" flag lowest)
        in
        at_least 1 "backlog" backlog;
        at_least 1 "max-clients" max_clients;
        at_least 0 "workers" workers;
        at_least 1 "queue" queue;
        Option.iter (at_least 0 "max-sessions") max_sessions;
        Option.iter (at_least 0 "memory-budget-mb") memory_budget_mb;
        let workers =
          if workers = 0 then Hb_util.Pool.recommended_jobs () else workers
        in
        (* Spans for --trace and observations for the metrics outputs
           both need the registry recording. *)
        if telemetry || trace <> None || prometheus || metrics_file <> None
           || monitor <> None || slo_p99_ms <> None || slo_error_rate <> None
           || metrics_interval <> None
        then begin
          Hb_util.Telemetry.set_enabled true;
          Hb_util.Telemetry.reset ()
        end;
        let dump =
          match flight_file with
          | None -> None
          | Some path ->
            Some
              (fun doc ->
                try Hb_util.Text.write_atomic path doc with Sys_error _ -> ())
        in
        let daemon =
          Hb_sta.Serve.create ~timeout_seconds:timeout ~prometheus ?dump
            ~generators:Hb_workload.Catalog.generators ?max_sessions
            ?memory_budget_mb ()
        in
        (* Write trace/metrics exactly once on the way out, whatever the
           exit path: normal return, handle_errors' exit 1, SIGTERM (the
           handler exits, so at_exit runs), or an uncaught exception
           (at_exit runs before the runtime reports it). A killed daemon
           used to leave a truncated, unparseable trace file. *)
        let dumped = ref false in
        let dump_outputs () =
          if not !dumped then begin
            dumped := true;
            let snapshot = Hb_util.Telemetry.snapshot () in
            (match trace with
             | Some path ->
               (try
                  Hb_util.Text.write_atomic path
                    (Hb_util.Telemetry.trace_json snapshot)
                with Sys_error _ -> ())
             | None -> ());
            match metrics_file with
            | Some path ->
              (try
                 Hb_util.Text.write_atomic path
                   (Hb_util.Telemetry.prometheus snapshot)
               with Sys_error _ -> ())
            | None -> ()
          end
        in
        at_exit dump_outputs;
        (* Telemetry plane: an SLO tracker whenever any monitoring flag
           is given (so the windowed gauges exist even without explicit
           budgets), and an HTTP listener started per serve mode — the
           socket mode passes its scheduler so /readyz can report queue
           saturation. *)
        let slo =
          if
            monitor <> None || slo_p99_ms <> None || slo_error_rate <> None
            || metrics_interval <> None
          then begin
            let slo =
              Hb_sta.Serve.Slo.create ?p99_budget_ms:slo_p99_ms
                ?error_budget:slo_error_rate ()
            in
            Hb_sta.Serve.attach_slo daemon slo;
            Some slo
          end
          else None
        in
        let monitor_server = ref None in
        let start_monitor ?scheduler () =
          match monitor with
          | None -> ()
          | Some port ->
            let m = Hb_sta.Monitor.start ~port ?scheduler ?slo daemon in
            Hb_util.Log.info "serve.monitor"
              [ ("port", Hb_util.Log.Int (Hb_sta.Monitor.port m)) ];
            monitor_server := Some m
        in
        let stop_monitor () =
          match !monitor_server with
          | Some m ->
            monitor_server := None;
            Hb_sta.Monitor.stop m
          | None -> ()
        in
        (* Periodic metrics snapshots for file-based collectors; each
           rewrite is atomic, so a scraper tailing the path never reads
           a torn exposition. The loop ends once the exit dump ran. *)
        (match (metrics_interval, metrics_file) with
         | Some interval, Some path ->
           let rec dump_loop () =
             Thread.delay interval;
             if not !dumped then begin
               (match slo with
                | Some slo ->
                  ignore (Hb_sta.Serve.Slo.tick slo : Hb_sta.Serve.Slo.status)
                | None -> ());
               Hb_util.Telemetry.sample_runtime ();
               (try
                  Hb_util.Text.write_atomic path
                    (Hb_util.Telemetry.prometheus
                       (Hb_util.Telemetry.snapshot ()))
                with Sys_error _ -> ());
               dump_loop ()
             end
           in
           ignore (Thread.create dump_loop () : Thread.t)
         | _ -> ());
        (* SIGUSR1: flight-recorder dump on demand, without stopping. *)
        (try
           Sys.set_signal Sys.sigusr1
             (Sys.Signal_handle
                (fun _ ->
                  let doc = Hb_sta.Serve.flight_json daemon in
                  match flight_file with
                  | Some path ->
                    (try Hb_util.Text.write_atomic path doc
                     with Sys_error _ -> ())
                  | None -> prerr_endline doc))
         with Invalid_argument _ | Sys_error _ -> ());
        (match socket with
         | None ->
           (try
              Sys.set_signal Sys.sigterm
                (Sys.Signal_handle (fun _ -> exit 143))
            with Invalid_argument _ | Sys_error _ -> ());
           start_monitor ();
           Hb_sta.Serve.run daemon stdin stdout
         | Some path ->
           (* A broken client pipe must be an error reply path, not a
              process death. *)
           Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
           let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
           (try Unix.unlink path with Unix.Unix_error _ -> ());
           Unix.bind sock (Unix.ADDR_UNIX path);
           Unix.listen sock backlog;
           (* SIGTERM is a graceful stop: no new accepts, in-flight
              requests drain, queued ones get shutting_down replies,
              outputs still flush on the way out. *)
           (try
              Sys.set_signal Sys.sigterm
                (Sys.Signal_handle (fun _ -> Hb_sta.Serve.request_stop daemon))
            with Invalid_argument _ | Sys_error _ -> ());
           let sched =
             Hb_sta.Serve.start_scheduler daemon ~workers ~queue_capacity:queue
           in
           start_monitor ~scheduler:sched ();
           (* Connection table: live client fds (so shutdown can unblock
              idle readers) and reader threads (so teardown can join
              them). The acceptor wake is a once-only shutdown of the
              listening socket's receive side, turning a blocked accept
              into an immediate error. *)
           let conn_mutex = Mutex.create () in
           let connections : (Unix.file_descr, unit) Hashtbl.t =
             Hashtbl.create 16
           in
           let reader_threads = ref [] in
           let active = ref 0 in
           let acceptor_woken = ref false in
           let wake_acceptor () =
             Mutex.lock conn_mutex;
             let fire = not !acceptor_woken in
             acceptor_woken := true;
             Mutex.unlock conn_mutex;
             if fire then
               try Unix.shutdown sock Unix.SHUTDOWN_RECEIVE
               with Unix.Unix_error _ -> ()
           in
           let reader fd =
             let client = Hb_sta.Serve.client daemon in
             let ic = Unix.in_channel_of_descr fd in
             let oc = Unix.out_channel_of_descr fd in
             (try
                let rec loop () =
                  let line = input_line ic in
                  if String.trim line <> "" then begin
                    let reply = Hb_sta.Serve.submit sched client line in
                    output_string oc reply;
                    output_char oc '\n';
                    flush oc
                  end;
                  if not (Hb_sta.Serve.finished daemon) then loop ()
                in
                loop ()
              with End_of_file | Sys_error _ -> ());
             Hb_sta.Serve.release_client daemon client;
             Mutex.lock conn_mutex;
             Hashtbl.remove connections fd;
             decr active;
             Hb_sta.Serve.set_active_clients !active;
             Mutex.unlock conn_mutex;
             (try Unix.close fd with Unix.Unix_error _ -> ());
             if Hb_sta.Serve.finished daemon then wake_acceptor ()
           in
           let rec accept_loop () =
             if not (Hb_sta.Serve.finished daemon) then begin
               match Unix.accept sock with
               | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                 accept_loop ()  (* a signal landed; re-check finished *)
               | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
                 accept_loop ()
               | exception
                   Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
                 ()  (* listening socket shut down for teardown *)
               | fd, _ ->
                 let admitted =
                   Mutex.lock conn_mutex;
                   let ok = !active < max_clients in
                   if ok then begin
                     Hashtbl.replace connections fd ();
                     incr active;
                     Hb_sta.Serve.set_active_clients !active
                   end;
                   Mutex.unlock conn_mutex;
                   ok
                 in
                 if admitted then begin
                   let th = Thread.create reader fd in
                   Mutex.lock conn_mutex;
                   reader_threads := th :: !reader_threads;
                   Mutex.unlock conn_mutex
                 end
                 else begin
                   (* One structured reply, then the door closes. *)
                   let oc = Unix.out_channel_of_descr fd in
                   (try
                      output_string oc
                        (Hb_sta.Serve.reject_line daemon ~code:"overloaded"
                           ~message:
                             (Printf.sprintf
                                "connection limit reached (max-clients %d)"
                                max_clients)
                           "");
                      output_char oc '\n';
                      flush oc
                    with Sys_error _ -> ());
                   (try Unix.close fd with Unix.Unix_error _ -> ())
                 end;
                 accept_loop ()
             end
           in
           accept_loop ();
           (* Drain: unblock idle readers (EOF via receive shutdown),
              let busy ones write their last reply, then stop workers
              and tear the registry down. *)
           Hb_sta.Serve.request_stop daemon;
           Mutex.lock conn_mutex;
           let fds = Hashtbl.fold (fun fd () acc -> fd :: acc) connections [] in
           let threads = !reader_threads in
           Mutex.unlock conn_mutex;
           List.iter
             (fun fd ->
               try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
               with Unix.Unix_error _ -> ())
             fds;
           List.iter Thread.join threads;
           Hb_sta.Serve.stop_scheduler sched;
           Hb_sta.Serve.shutdown_sessions daemon;
           (try Unix.close sock with Unix.Unix_error _ -> ());
           (try Unix.unlink path with Unix.Unix_error _ -> ()));
        stop_monitor ();
        dump_outputs ())
  in
  let timeout_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-request wall-clock budget; a request still running after \
             this long is answered with a structured timeout error. 0 \
             disables the limit.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket instead of stdin/stdout; \
             clients are served concurrently (one reader thread per \
             connection feeding a bounded request queue executed by a \
             pool of worker domains) and loaded designs persist in a \
             shared session registry across connections.")
  in
  let int_flag name absent number doc =
    Arg.(value & opt number absent & info [ name ] ~docv:"N" ~doc)
  in
  let backlog_arg =
    int_flag "backlog" 64 Arg.int "Listen backlog of the daemon socket."
  in
  let max_clients_arg =
    int_flag "max-clients" 64 Arg.int
      "Maximum simultaneous client connections; further connections get \
       one structured overloaded reply and are closed."
  in
  let workers_arg =
    int_flag "workers" 0 Arg.int
      "Worker domains executing requests; 0 picks the machine's \
       recommended domain count. With more than one, per-session \
       analysis pools are clamped to one job."
  in
  let queue_arg =
    int_flag "queue" 64 Arg.int
      "Bound on queued requests; a full queue makes the daemon answer \
       overloaded instead of queueing without limit."
  in
  let max_sessions_arg =
    int_flag "max-sessions" None Arg.(some int)
      "Resident preprocessed sessions kept in the registry before \
       least-recently-used unbound ones are evicted; 0 means unlimited \
       (default 8)."
  in
  let memory_budget_arg =
    int_flag "memory-budget-mb" None Arg.(some int)
      "Soft RSS budget in megabytes: while current RSS exceeds it, idle \
       sessions are evicted; 0 means unlimited (default 0)."
  in
  let telemetry_arg =
    Arg.(value & flag & info [ "telemetry" ]
           ~doc:"Record work counters, request histograms and phase spans \
                 (implied by $(b,--trace), $(b,--prometheus) and \
                 $(b,--metrics-file)).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"On exit, write every phase span as Chrome trace-event \
                 JSON to $(docv); spans recorded while serving a request \
                 carry its request id. Written atomically, also on fatal \
                 errors and SIGTERM.")
  in
  let prometheus_arg =
    Arg.(value & flag & info [ "prometheus" ]
           ~doc:"Make Prometheus text exposition the default format of \
                 the $(b,metrics) request (clients can still ask for \
                 \"format\": \"json\").")
  in
  let metrics_file_arg =
    Arg.(value & opt (some string) None & info [ "metrics-file" ] ~docv:"FILE"
           ~doc:"On exit, dump all counters, gauges and histograms to \
                 $(docv) in Prometheus text exposition format.")
  in
  let flight_file_arg =
    Arg.(value & opt (some string) None & info [ "flight-file" ] ~docv:"FILE"
           ~doc:"Write the flight-recorder JSON (recent requests + log \
                 events) to $(docv) after every error reply and on \
                 SIGUSR1 (without it, SIGUSR1 dumps to stderr).")
  in
  let monitor_arg =
    Arg.(value & opt (some int) None & info [ "monitor" ] ~docv:"PORT"
           ~doc:"Serve the live telemetry plane over HTTP on \
                 127.0.0.1:$(docv): $(b,/metrics) (Prometheus text \
                 exposition, refreshed per scrape), $(b,/healthz), \
                 $(b,/readyz) (503 while draining or queue-saturated), \
                 $(b,/flight) and $(b,/buildinfo). Port 0 picks a free \
                 port (logged as serve.monitor). Implies \
                 $(b,--telemetry).")
  in
  let slo_p99_ms_arg =
    Arg.(value & opt (some float) None & info [ "slo-p99-ms" ] ~docv:"MS"
           ~doc:"Latency objective: windowed (last ~60s) p99 of \
                 client-observed request latency, in milliseconds. Burn \
                 rate (measured/budget) and breach state are exported as \
                 hb_slo_* gauges and in $(b,metrics) replies. Implies \
                 $(b,--telemetry).")
  in
  let slo_error_rate_arg =
    Arg.(value & opt (some float) None & info [ "slo-error-rate" ] ~docv:"RATE"
           ~doc:"Error-rate objective over the same rolling window, as a \
                 fraction of requests (e.g. 0.01). Exported like \
                 $(b,--slo-p99-ms). Implies $(b,--telemetry).")
  in
  let metrics_interval_arg =
    Arg.(value & opt (some float) None
         & info [ "metrics-interval" ] ~docv:"SECONDS"
             ~doc:"Rewrite $(b,--metrics-file) atomically every $(docv) \
                   seconds while serving (instead of only on exit), \
                   refreshing the runtime gauges and SLO window first. \
                   Requires $(b,--metrics-file). Implies \
                   $(b,--telemetry).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the batch/daemon front end: newline-delimited JSON requests \
          (load/annotate/analyse/paths/shutdown) against a registry of \
          persistent analysis sessions shared across concurrent clients")
    Term.(const run $ timeout_arg $ socket_arg $ telemetry_arg $ trace_arg
          $ prometheus_arg $ metrics_file_arg $ flight_file_arg
          $ log_level_arg $ log_file_arg $ backlog_arg $ max_clients_arg
          $ workers_arg $ queue_arg $ max_sessions_arg $ memory_budget_arg
          $ monitor_arg $ slo_p99_ms_arg $ slo_error_rate_arg
          $ metrics_interval_arg)

(* ------------------------------------------------------------------ *)
(* snapshot                                                           *)
(* ------------------------------------------------------------------ *)

let snapshot_cmd =
  let run netlist clocks generator out warm restore delay_model log_level
      log_file =
    handle_errors (fun () ->
        setup_logging log_level log_file;
        match restore with
        | Some path ->
          (* Restore-and-report: proves the file is loadable by this
             build and shows what the warm session answers. *)
          let session = Hb_sta.Session.of_snapshot ~path in
          let report = Hb_sta.Session.analyse session in
          Hb_sta.Session.close session;
          print_string (Hb_sta.Report.summary report);
          (match report.Hb_sta.Session.outcome.Hb_sta.Algorithm1.status with
           | Hb_sta.Algorithm1.Meets_timing -> exit 0
           | Hb_sta.Algorithm1.Slow_paths -> exit 2)
        | None ->
          let design, system =
            match generator, netlist, clocks with
            | Some name, None, None ->
              (match List.assoc_opt name generators with
               | Some make -> make ()
               | None ->
                 Printf.eprintf "unknown design %s (expected: %s)\n" name
                   (String.concat ", " (List.map fst generators));
                 exit 1)
            | None, Some n, Some c -> (load_design n, load_clocks c)
            | _ ->
              Printf.eprintf
                "error: give either --generator, or --netlist and --clocks\n";
              exit 1
          in
          let delays =
            match Hb_sta.Delays.of_name delay_model with
            | Some delays -> delays
            | None ->
              Printf.eprintf
                "unknown delay model %s (lumped|rc — only providers \
                 rebuildable by name can be snapshotted)\n"
                delay_model;
              exit 1
          in
          let session = Hb_sta.Session.create ~design ~system ~delays () in
          if warm then ignore (Hb_sta.Session.analyse session);
          Hb_sta.Session.save_snapshot session ~path:out;
          Hb_sta.Session.close session;
          Printf.printf "snapshot written to %s%s\n" out
            (if warm then " (analysis caches included)" else ""))
  in
  let netlist =
    Arg.(value & opt (some file) None
         & info [ "n"; "netlist" ] ~docv:"FILE.hbn" ~doc:"Netlist to snapshot.")
  in
  let clocks =
    Arg.(value & opt (some file) None
         & info [ "c"; "clocks" ] ~docv:"FILE.hbc"
             ~doc:"Clock waveform description.")
  in
  let generator =
    Arg.(value & opt (some string) None
         & info [ "generator" ] ~docv:"DESIGN"
             ~doc:(Printf.sprintf
                     "Snapshot a built-in design instead of files (one of: \
                      %s)."
                     (String.concat ", " Hb_workload.Catalog.names)))
  in
  let out =
    Arg.(value & opt string "design.hbs"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the snapshot.")
  in
  let warm =
    Arg.(value & flag
         & info [ "warm" ]
             ~doc:"Run a full analysis before saving, so the snapshot also \
                   carries the slack caches and cached query results.")
  in
  let restore =
    Arg.(value & opt (some file) None
         & info [ "restore" ] ~docv:"FILE"
             ~doc:"Restore a session from $(docv) and print its analysis \
                   summary instead of saving one (exit 2 on slow paths).")
  in
  let delay_model =
    Arg.(value & opt string "lumped"
         & info [ "delay-model" ] ~docv:"MODEL"
             ~doc:"Component-delay estimator: lumped or rc (providers are \
                   rebuilt by name on restore).")
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Save a preprocessed analysis session to a file, or restore one \
             — a warm start skips preprocessing entirely")
    Term.(const run $ netlist $ clocks $ generator $ out $ warm $ restore
          $ delay_model $ log_level_arg $ log_file_arg)

(* ------------------------------------------------------------------ *)
(* validate                                                           *)
(* ------------------------------------------------------------------ *)

let validate_cmd =
  let run corpus update designs skip_golden snapshot snapshot_design fuzz
      fuzz_seed budget inject artifact =
    handle_errors (fun () ->
        let failed = ref false in
        (* Warm-start gate: a session restored from a snapshot must
           reproduce the corpus entry of the design it was saved from,
           bit for bit (QoR journal excepted — the optimiser builds its
           own sessions). *)
        (match snapshot, snapshot_design with
         | None, _ -> ()
         | Some _, None ->
           Printf.eprintf "error: --snapshot needs --snapshot-design\n";
           exit 1
         | Some path, Some name ->
           let session = Hb_sta.Session.of_snapshot ~path in
           let actual = Hb_workload.Golden.measure_restored ~name session in
           Hb_sta.Session.close session;
           (match Hb_workload.Golden.load ~dir:corpus name with
            | None ->
              failed := true;
              Printf.printf
                "snapshot %-10s MISSING expectation in %s (run `make \
                 golden`)\n%!"
                name corpus
            | Some expected ->
              let expected = { expected with Hb_workload.Golden.qor = None } in
              (match Hb_workload.Golden.diff ~expected ~actual with
               | [] ->
                 Printf.printf "snapshot %-10s ok (restored from %s)\n%!" name
                   path
               | diffs ->
                 failed := true;
                 Printf.printf "snapshot %-10s FAIL (restored from %s)\n%!"
                   name path;
                 List.iter (Printf.printf "  %s\n") diffs)));
        if not skip_golden then begin
          let names =
            match designs with
            | [] -> Hb_workload.Golden.default_designs
            | names -> names
          in
          List.iter
            (fun name ->
               let actual = Hb_workload.Golden.measure name in
               if update then begin
                 Hb_workload.Golden.save ~dir:corpus actual;
                 Printf.printf "golden %-10s updated\n%!" name
               end
               else
                 match Hb_workload.Golden.load ~dir:corpus name with
                 | None ->
                   failed := true;
                   Printf.printf
                     "golden %-10s MISSING expectation in %s (run `make \
                      golden`)\n%!"
                     name corpus
                 | Some expected ->
                   (match Hb_workload.Golden.diff ~expected ~actual with
                    | [] -> Printf.printf "golden %-10s ok\n%!" name
                    | diffs ->
                      failed := true;
                      Printf.printf "golden %-10s FAIL\n%!" name;
                      List.iter (Printf.printf "  %s\n") diffs))
            names
        end;
        let seeds =
          match fuzz_seed with
          | Some seed -> [ seed ]
          | None ->
            if fuzz <= 0 then []
            else
              Hb_workload.Fuzz.regression_seeds
              @ Hb_workload.Fuzz.seed_list ~base:0xC0FFEEL fuzz
        in
        if seeds <> [] then begin
          let on_failure (f : Hb_workload.Fuzz.failure) =
            failed := true;
            let p = f.Hb_workload.Fuzz.params in
            Printf.printf "fuzz FAIL seed 0x%Lx: %s\n  %s\n  repro: %s\n%!"
              p.Hb_workload.Fuzz.seed f.Hb_workload.Fuzz.check
              f.Hb_workload.Fuzz.detail
              (Hb_workload.Fuzz.repro_command f);
            Hb_util.Text.write_atomic artifact
              (Hb_util.Json.to_string (Hb_workload.Fuzz.failure_json f) ^ "\n")
          in
          let outcome =
            Hb_workload.Fuzz.run ~inject ?budget_seconds:budget ~on_failure
              seeds
          in
          Printf.printf "fuzz: %d of %d seed(s) run, %d divergence(s)\n%!"
            outcome.Hb_workload.Fuzz.seeds_run (List.length seeds)
            (List.length outcome.Hb_workload.Fuzz.failures)
        end;
        if !failed then exit 1)
  in
  let corpus_arg =
    Arg.(value & opt string "test/golden"
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Directory holding the frozen golden expectations.")
  in
  let update_arg =
    Arg.(value & flag
         & info [ "update" ]
             ~doc:"Rewrite the golden corpus from the current engine instead \
                   of checking against it (what $(b,make golden) runs).")
  in
  let designs_arg =
    Arg.(value & opt_all string []
         & info [ "design" ] ~docv:"NAME"
             ~doc:"Validate only the named catalogue design (repeatable; \
                   default: every seed design plus scale10k).")
  in
  let skip_golden_arg =
    Arg.(value & flag
         & info [ "skip-golden" ] ~doc:"Skip the golden-corpus gate.")
  in
  let snapshot_arg =
    Arg.(value & opt (some file) None
         & info [ "snapshot" ] ~docv:"FILE"
             ~doc:"Restore a session from $(docv) and check it against the \
                   corpus entry named by $(b,--snapshot-design) — the \
                   warm-start bit-parity gate.")
  in
  let snapshot_design_arg =
    Arg.(value & opt (some string) None
         & info [ "snapshot-design" ] ~docv:"NAME"
             ~doc:"Corpus design the snapshot was saved from.")
  in
  let fuzz_arg =
    Arg.(value & opt int 0
         & info [ "fuzz" ] ~docv:"N"
             ~doc:"Differentially fuzz $(docv) random seeds (plus the pinned \
                   regression seeds) through every engine fast path.")
  in
  let seed_conv =
    let parse s =
      match Int64.of_string_opt s with
      | Some seed -> Ok seed
      | None -> Error (`Msg (Printf.sprintf "bad seed %S" s))
    in
    Arg.conv (parse, fun ppf s -> Format.fprintf ppf "0x%Lx" s)
  in
  let fuzz_seed_arg =
    Arg.(value & opt (some seed_conv) None
         & info [ "fuzz-seed" ] ~docv:"SEED"
             ~doc:"Fuzz exactly this seed (decimal or 0x hex) — the one-line \
                   repro a fuzz failure prints.")
  in
  let budget_arg =
    Arg.(value & opt (some float) None
         & info [ "budget-seconds" ] ~docv:"SECONDS"
             ~doc:"Stop starting new fuzz seeds once this much wall time has \
                   elapsed (the CI time box).")
  in
  let inject_arg =
    Arg.(value & flag
         & info [ "inject" ]
             ~doc:"Self-test: sabotage the cache-coherence check by dropping \
                   one cluster from the invalidation set, proving the fuzzer \
                   would catch a real invalidation off-by-one.")
  in
  let artifact_arg =
    Arg.(value & opt string "fuzz-failure.json"
         & info [ "artifact" ] ~docv:"FILE"
             ~doc:"Where to write the JSON failure artifact (params, check, \
                   repro command) when a fuzz divergence is found.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Gate the engine against the frozen golden QoR corpus and \
          differentially fuzz its fast paths (incremental, macro, session, \
          k-worst, cache coherence) against naive references")
    Term.(const run $ corpus_arg $ update_arg $ designs_arg $ skip_golden_arg
          $ snapshot_arg $ snapshot_design_arg $ fuzz_arg $ fuzz_seed_arg
          $ budget_arg $ inject_arg $ artifact_arg)

let () =
  let info =
    Cmd.info "hummingbird" ~version:"1.0.0"
      ~doc:"Timing analysis in a logic synthesis environment (DAC 1989 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ analyse_cmd; stats_cmd; passes_cmd; generate_cmd; optimise_cmd;
            whatif_cmd; minperiod_cmd; critical_cmd; corners_cmd;
            timing_cmd; lint_cmd; serve_cmd; snapshot_cmd; validate_cmd ]))
