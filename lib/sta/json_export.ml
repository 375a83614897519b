module Json = Hb_util.Json

let number f =
  if Float.is_finite f then
    (* %.17g round-trips doubles but is noisy; %.6f is ample for ns. *)
    Printf.sprintf "%.6f" f
  else "null"

let schema_version = 1

let report ?(paths = 0) (r : Engine.report) =
  let ctx = r.Engine.context in
  let outcome = r.Engine.outcome in
  let slacks = outcome.Algorithm1.final in
  let buffer = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  add "{\n";
  add "  \"schema_version\": %d,\n" schema_version;
  add "  \"design\": \"%s\",\n"
    (Json.escape ctx.Context.design.Hb_netlist.Design.design_name);
  add "  \"period\": %s,\n"
    (number ctx.Context.system.Hb_clock.System.overall_period);
  add "  \"verdict\": \"%s\",\n"
    (match outcome.Algorithm1.status with
     | Algorithm1.Meets_timing -> "meets_timing"
     | Algorithm1.Slow_paths -> "slow_paths");
  add "  \"worst_slack\": %s,\n" (number slacks.Slacks.worst);
  let settling =
    Passes.settling_times ctx.Context.passes ~table:ctx.Context.table
  in
  add "  \"passes\": {\"minimum\": %d, \"per_edge\": %d},\n"
    settling.Passes.minimized_passes settling.Passes.naive_settling_times;
  (* Endpoints ascending by slack. *)
  let endpoints = ref [] in
  Array.iteri
    (fun e slack ->
       if Hb_util.Time.is_finite slack then
         endpoints :=
           ( (Elements.element ctx.Context.elements e).Hb_sync.Element.label,
             slack )
           :: !endpoints)
    slacks.Slacks.element_input_slack;
  let endpoints = List.sort (fun (_, a) (_, b) -> compare a b) !endpoints in
  add "  \"endpoints\": [";
  List.iteri
    (fun i (label, slack) ->
       add "%s\n    {\"element\": \"%s\", \"slack\": %s}"
         (if i = 0 then "" else ",")
         (Json.escape label) (number slack))
    endpoints;
  add "\n  ],\n";
  add "  \"slow_nets\": [";
  List.iteri
    (fun i net ->
       add "%s\"%s\"" (if i = 0 then "" else ", ") (Json.escape net))
    (Report.slow_nets ctx slacks);
  add "],\n";
  add "  \"hold_violations\": [";
  List.iteri
    (fun i (v : Holdcheck.violation) ->
       add "%s\n    {\"element\": \"%s\", \"margin\": %s}"
         (if i = 0 then "" else ",")
         (Json.escape v.Holdcheck.label)
         (number v.Holdcheck.margin))
    r.Engine.hold_violations;
  add "\n  ],\n";
  if paths > 0 then begin
    let design = ctx.Context.design in
    let element_label e =
      (Elements.element ctx.Context.elements e).Hb_sync.Element.label
    in
    add "  \"paths\": [";
    List.iteri
      (fun i (p : Paths.path) ->
         add "%s\n    {\"start\": \"%s\", \"end\": \"%s\", \"slack\": %s, \
              \"cluster\": %d, \"cut\": %d, \"hops\": ["
           (if i = 0 then "" else ",")
           (Json.escape (element_label p.Paths.start_element))
           (Json.escape (element_label p.Paths.end_element))
           (number p.Paths.slack) p.Paths.cluster p.Paths.cut;
         List.iteri
           (fun j (hop : Paths.hop) ->
              let net_name =
                (Hb_netlist.Design.net design hop.Paths.net)
                  .Hb_netlist.Design.net_name
              in
              let via =
                match hop.Paths.via with
                | None -> "null"
                | Some inst ->
                  Printf.sprintf "\"%s\""
                    (Json.escape
                       (Hb_netlist.Design.instance design inst)
                         .Hb_netlist.Design.inst_name)
              in
              add "%s{\"net\": \"%s\", \"via\": %s, \"at\": %s}"
                (if j = 0 then "" else ", ")
                (Json.escape net_name) via (number hop.Paths.at))
           p.Paths.hops;
         add "]}")
      (Paths.worst_paths ctx slacks ~limit:paths);
    add "\n  ],\n";
    (* Near-critical density per worst endpoint: how many distinct paths
       compete within the top [paths], and how far the k-th sits behind
       the worst. Uses the bounded enumeration, so with telemetry on the
       paths.* counters below reflect this very block. *)
    let endpoints = Paths.worst_endpoints slacks ~limit:paths in
    let enumerations =
      Paths.enumerate_many ctx
        ~endpoints:(List.map fst endpoints) ~limit:paths
    in
    add "  \"near_critical\": [";
    List.iteri
      (fun i ((endpoint, _), enumerated) ->
         let worst, kth =
           match enumerated with
           | [] -> (None, None)
           | (first : Paths.path) :: _ ->
             let rec last = function
               | [ (p : Paths.path) ] -> p
               | _ :: rest -> last rest
               | [] -> first
             in
             (Some first.Paths.slack, Some (last enumerated).Paths.slack)
         in
         let opt = function Some v -> number v | None -> "null" in
         add "%s\n    {\"endpoint\": \"%s\", \"count\": %d, \
              \"worst_slack\": %s, \"kth_slack\": %s}"
           (if i = 0 then "" else ",")
           (Json.escape (element_label endpoint))
           (List.length enumerated) (opt worst) (opt kth))
      (List.combine endpoints enumerations);
    add "\n  ],\n"
  end;
  if ctx.Context.config.Config.telemetry then begin
    let snapshot = Hb_util.Telemetry.snapshot () in
    add "  \"metrics\": {\n";
    add "    \"counters\": {";
    List.iteri
      (fun i (name, v) ->
         add "%s\n      \"%s\": %d" (if i = 0 then "" else ",")
           (Json.escape name) v)
      snapshot.Hb_util.Telemetry.counters;
    add "\n    },\n";
    add "    \"gauges\": {";
    List.iteri
      (fun i (name, v) ->
         add "%s\n      \"%s\": %s" (if i = 0 then "" else ",")
           (Json.escape name) (number v))
      snapshot.Hb_util.Telemetry.gauges;
    add "\n    },\n";
    add "    \"spans\": [";
    List.iteri
      (fun i (name, count, wall, cpu) ->
         add "%s\n      {\"name\": \"%s\", \"count\": %d, \"wall_s\": %s, \
              \"cpu_s\": %s}"
           (if i = 0 then "" else ",")
           (Json.escape name) count (number wall) (number cpu))
      (Hb_util.Telemetry.aggregate_spans snapshot);
    add "\n    ]\n";
    add "  },\n"
  end;
  add "  \"timings\": {\"preprocess_s\": %s, \"analysis_s\": %s, \"constraints_s\": %s, \
       \"preprocess_wall_s\": %s, \"analysis_wall_s\": %s, \"constraints_wall_s\": %s, \
       \"peak_rss_bytes\": %s}\n"
    (number r.Engine.timings.Engine.preprocess_seconds)
    (number r.Engine.timings.Engine.analysis_seconds)
    (number r.Engine.timings.Engine.constraints_seconds)
    (number r.Engine.timings.Engine.preprocess_wall_seconds)
    (number r.Engine.timings.Engine.analysis_wall_seconds)
    (number r.Engine.timings.Engine.constraints_wall_seconds)
    (match r.Engine.timings.Engine.peak_rss_bytes with
     | Some bytes -> string_of_int bytes
     | None -> "null");
  add "}\n";
  Buffer.contents buffer
