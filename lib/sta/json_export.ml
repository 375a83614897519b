module Json = Hb_util.Json

(* What [Printf.sprintf "%.6f"] prints: [Printf] calls this primitive after
   building the format in a fresh buffer on every call. *)
external format_float : string -> float -> string = "caml_format_float"

let schema_version = 1

let report ?(paths = 0) (r : Engine.report) =
  let ctx = r.Engine.context in
  let outcome = r.Engine.outcome in
  let slacks = outcome.Algorithm1.final in
  let buffer = Buffer.create 4096 in
  let add s = Buffer.add_string buffer s in
  let add_int i = add (string_of_int i) in
  (* %.17g round-trips doubles but is noisy; %.6f is ample for ns. The
     finiteness test is spelled out: a call across modules would box [f]
     under [-opaque]. *)
  let add_number f =
    add (if f -. f = 0.0 then format_float "%.6f" f else "null")
  in
  let add_quoted s = Json.add_quoted buffer s in
  (* Item [i] of a list opens with a comma unless it is the first. *)
  let sep i s =
    if i > 0 then Buffer.add_char buffer ',';
    add s
  in
  let element_label e =
    (Elements.element ctx.Context.elements e).Hb_sync.Element.label
  in
  add "{\n  \"schema_version\": ";
  add_int schema_version;
  add ",\n  \"design\": ";
  add_quoted ctx.Context.design.Hb_netlist.Design.design_name;
  add ",\n  \"period\": ";
  add_number ctx.Context.system.Hb_clock.System.overall_period;
  add ",\n  \"verdict\": ";
  add
    (match outcome.Algorithm1.status with
     | Algorithm1.Meets_timing -> "\"meets_timing\""
     | Algorithm1.Slow_paths -> "\"slow_paths\"");
  add ",\n  \"worst_slack\": ";
  add_number slacks.Slacks.worst;
  let settling =
    Passes.settling_times ctx.Context.passes ~table:ctx.Context.table
  in
  add ",\n  \"passes\": {\"minimum\": ";
  add_int settling.Passes.minimized_passes;
  add ", \"per_edge\": ";
  add_int settling.Passes.naive_settling_times;
  add "},\n";
  (* Endpoints ascending by slack, ties in descending element id: the
     array is filled from the highest id down and the sort is stable. *)
  let slack = slacks.Slacks.element_input_slack in
  let count = ref 0 in
  for e = 0 to Array.length slack - 1 do
    let s = slack.(e) in
    if s -. s = 0.0 then incr count
  done;
  let endpoints = Array.make !count 0 in
  let next = ref 0 in
  for e = Array.length slack - 1 downto 0 do
    let s = slack.(e) in
    if s -. s = 0.0 then begin
      endpoints.(!next) <- e;
      incr next
    end
  done;
  Array.stable_sort (fun a b -> Float.compare slack.(a) slack.(b)) endpoints;
  add "  \"endpoints\": [";
  Array.iteri
    (fun i e ->
       sep i "\n    {\"element\": ";
       add_quoted (element_label e);
       add ", \"slack\": ";
       add_number slack.(e);
       add "}")
    endpoints;
  add "\n  ],\n  \"slow_nets\": [";
  List.iteri
    (fun i net ->
       if i > 0 then add ", ";
       add_quoted net)
    (Report.slow_nets ctx slacks);
  add "],\n  \"hold_violations\": [";
  List.iteri
    (fun i (v : Holdcheck.violation) ->
       sep i "\n    {\"element\": ";
       add_quoted v.Holdcheck.label;
       add ", \"margin\": ";
       add_number v.Holdcheck.margin;
       add "}")
    r.Engine.hold_violations;
  add "\n  ],\n";
  if paths > 0 then begin
    let design = ctx.Context.design in
    add "  \"paths\": [";
    List.iteri
      (fun i (p : Paths.path) ->
         sep i "\n    {\"start\": ";
         add_quoted (element_label p.Paths.start_element);
         add ", \"end\": ";
         add_quoted (element_label p.Paths.end_element);
         add ", \"slack\": ";
         add_number p.Paths.slack;
         add ", \"cluster\": ";
         add_int p.Paths.cluster;
         add ", \"cut\": ";
         add_int p.Paths.cut;
         add ", \"hops\": [";
         List.iteri
           (fun j (hop : Paths.hop) ->
              if j > 0 then add ", ";
              add "{\"net\": ";
              add_quoted
                (Hb_netlist.Design.net design hop.Paths.net)
                  .Hb_netlist.Design.net_name;
              add ", \"via\": ";
              (match hop.Paths.via with
               | None -> add "null"
               | Some inst ->
                 add_quoted
                   (Hb_netlist.Design.instance design inst)
                     .Hb_netlist.Design.inst_name);
              add ", \"at\": ";
              add_number hop.Paths.at;
              add "}")
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
         sep i "\n    {\"endpoint\": ";
         add_quoted (element_label endpoint);
         add ", \"count\": ";
         add_int (List.length enumerated);
         add ", \"worst_slack\": ";
         (match enumerated with
          | [] -> add "null, \"kth_slack\": null"
          | (first : Paths.path) :: rest ->
            add_number first.Paths.slack;
            add ", \"kth_slack\": ";
            let rec last (p : Paths.path) = function
              | [] -> p
              | p :: rest -> last p rest
            in
            add_number (last first rest).Paths.slack);
         add "}")
      (List.combine endpoints enumerations);
    add "\n  ],\n"
  end;
  if ctx.Context.config.Config.telemetry then begin
    let snapshot = Hb_util.Telemetry.snapshot () in
    add "  \"metrics\": {\n    \"counters\": {";
    List.iteri
      (fun i (name, v) ->
         sep i "\n      ";
         add_quoted name;
         add ": ";
         add_int v)
      snapshot.Hb_util.Telemetry.counters;
    add "\n    },\n    \"gauges\": {";
    List.iteri
      (fun i (name, v) ->
         sep i "\n      ";
         add_quoted name;
         add ": ";
         add_number v)
      snapshot.Hb_util.Telemetry.gauges;
    add "\n    },\n    \"spans\": [";
    List.iteri
      (fun i (name, count, wall, cpu) ->
         sep i "\n      {\"name\": ";
         add_quoted name;
         add ", \"count\": ";
         add_int count;
         add ", \"wall_s\": ";
         add_number wall;
         add ", \"cpu_s\": ";
         add_number cpu;
         add "}")
      (Hb_util.Telemetry.aggregate_spans snapshot);
    add "\n    ]\n  },\n"
  end;
  let timings = r.Engine.timings in
  add "  \"timings\": {\"preprocess_s\": ";
  add_number timings.Engine.preprocess_seconds;
  add ", \"analysis_s\": ";
  add_number timings.Engine.analysis_seconds;
  add ", \"constraints_s\": ";
  add_number timings.Engine.constraints_seconds;
  add ", \"preprocess_wall_s\": ";
  add_number timings.Engine.preprocess_wall_seconds;
  add ", \"analysis_wall_s\": ";
  add_number timings.Engine.analysis_wall_seconds;
  add ", \"constraints_wall_s\": ";
  add_number timings.Engine.constraints_wall_seconds;
  add ", \"peak_rss_bytes\": ";
  (match timings.Engine.peak_rss_bytes with
   | Some bytes -> add_int bytes
   | None -> add "null");
  add "}\n}\n";
  Buffer.contents buffer
