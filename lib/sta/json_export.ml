module Json = Hb_util.Json

(* What [Printf.sprintf "%.6f"] prints: [Printf] calls this primitive after
   building the format in a fresh buffer on every call. *)
external format_float : string -> float -> string = "caml_format_float"

let schema_version = 1

type layout = Pretty | Compact

(* Line breaks of the pretty layout, by depth of indentation. *)
let indents = [| "\n"; "\n  "; "\n    "; "\n      " |]

let add_report ?(paths = 0) layout buffer (r : Engine.report) =
  let ctx = r.Engine.context in
  let outcome = r.Engine.outcome in
  let slacks = outcome.Algorithm1.final in
  let pretty = match layout with Pretty -> true | Compact -> false in
  let add s = Buffer.add_string buffer s in
  (* The separators are the only whitespace either layout writes: after
     a key, between the members of a one-line object or list, and before
     a row on a line of its own. *)
  let colon = if pretty then ": " else ":" in
  let comma = if pretty then ", " else "," in
  let nl depth = if pretty then add indents.(depth) in
  (* %.17g round-trips doubles but is noisy; %.6f is ample for ns. The
     compact layout prints what [Json.parse] reads back from the pretty
     text, printed by [Json]: a reply's bytes are those of the report
     parsed into its envelope. The finiteness test is spelled out: a
     call across modules would box [f] under [-opaque]. *)
  let add_number f =
    if f -. f <> 0.0 then add "null"
    else if pretty then add (format_float "%.6f" f)
    else Json.add_number buffer (float_of_string (format_float "%.6f" f))
  in
  let add_int i =
    if pretty then add (string_of_int i)
    else Json.add_number buffer (float_of_int i)
  in
  let add_quoted s = Json.add_quoted buffer s in
  let key k =
    add_quoted k;
    add colon
  in
  (* A member of the top-level object after its first. *)
  let member k =
    add ",";
    nl 1;
    key k
  in
  (* A member of a one-line object after its first. *)
  let field k =
    add comma;
    key k
  in
  (* Item [i] of a list or object whose items each take a line. *)
  let row depth i =
    if i > 0 then add ",";
    nl depth
  in
  let element_label e =
    (Elements.element ctx.Context.elements e).Hb_sync.Element.label
  in
  add "{";
  nl 1;
  key "schema_version";
  add_int schema_version;
  member "design";
  add_quoted ctx.Context.design.Hb_netlist.Design.design_name;
  member "period";
  add_number ctx.Context.system.Hb_clock.System.overall_period;
  member "verdict";
  add
    (match outcome.Algorithm1.status with
     | Algorithm1.Meets_timing -> "\"meets_timing\""
     | Algorithm1.Slow_paths -> "\"slow_paths\"");
  member "worst_slack";
  add_number slacks.Slacks.worst;
  let settling =
    Passes.settling_times ctx.Context.passes ~table:ctx.Context.table
  in
  member "passes";
  add "{";
  key "minimum";
  add_int settling.Passes.minimized_passes;
  field "per_edge";
  add_int settling.Passes.naive_settling_times;
  add "}";
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
  member "endpoints";
  add "[";
  Array.iteri
    (fun i e ->
       row 2 i;
       add "{";
       key "element";
       add_quoted (element_label e);
       field "slack";
       add_number slack.(e);
       add "}")
    endpoints;
  nl 1;
  add "]";
  member "slow_nets";
  add "[";
  List.iteri
    (fun i net ->
       if i > 0 then add comma;
       add_quoted net)
    (Report.slow_nets ctx slacks);
  add "]";
  member "hold_violations";
  add "[";
  List.iteri
    (fun i (v : Holdcheck.violation) ->
       row 2 i;
       add "{";
       key "element";
       add_quoted v.Holdcheck.label;
       field "margin";
       add_number v.Holdcheck.margin;
       add "}")
    r.Engine.hold_violations;
  nl 1;
  add "]";
  if paths > 0 then begin
    let design = ctx.Context.design in
    member "paths";
    add "[";
    List.iteri
      (fun i (p : Paths.path) ->
         row 2 i;
         add "{";
         key "start";
         add_quoted (element_label p.Paths.start_element);
         field "end";
         add_quoted (element_label p.Paths.end_element);
         field "slack";
         add_number p.Paths.slack;
         field "cluster";
         add_int p.Paths.cluster;
         field "cut";
         add_int p.Paths.cut;
         field "hops";
         add "[";
         List.iteri
           (fun j (hop : Paths.hop) ->
              if j > 0 then add comma;
              add "{";
              key "net";
              add_quoted
                (Hb_netlist.Design.net design hop.Paths.net)
                  .Hb_netlist.Design.net_name;
              field "via";
              (match hop.Paths.via with
               | None -> add "null"
               | Some inst ->
                 add_quoted
                   (Hb_netlist.Design.instance design inst)
                     .Hb_netlist.Design.inst_name);
              field "at";
              add_number hop.Paths.at;
              add "}")
           p.Paths.hops;
         add "]}")
      (Paths.worst_paths ctx slacks ~limit:paths);
    nl 1;
    add "]";
    (* Near-critical density per worst endpoint: how many distinct paths
       compete within the top [paths], and how far the k-th sits behind
       the worst. Uses the bounded enumeration, so with telemetry on the
       paths.* counters below reflect this very block. *)
    let endpoints = Paths.worst_endpoints slacks ~limit:paths in
    let enumerations =
      Paths.enumerate_many ctx
        ~endpoints:(List.map fst endpoints) ~limit:paths
    in
    member "near_critical";
    add "[";
    List.iteri
      (fun i ((endpoint, _), enumerated) ->
         row 2 i;
         add "{";
         key "endpoint";
         add_quoted (element_label endpoint);
         field "count";
         add_int (List.length enumerated);
         field "worst_slack";
         (match enumerated with
          | [] ->
            add "null";
            field "kth_slack";
            add "null"
          | (first : Paths.path) :: rest ->
            add_number first.Paths.slack;
            field "kth_slack";
            let rec last (p : Paths.path) = function
              | [] -> p
              | p :: rest -> last p rest
            in
            add_number (last first rest).Paths.slack);
         add "}")
      (List.combine endpoints enumerations);
    nl 1;
    add "]"
  end;
  if ctx.Context.config.Config.telemetry then begin
    let snapshot = Hb_util.Telemetry.snapshot () in
    member "metrics";
    add "{";
    nl 2;
    key "counters";
    add "{";
    List.iteri
      (fun i (name, v) ->
         row 3 i;
         key name;
         add_int v)
      snapshot.Hb_util.Telemetry.counters;
    nl 2;
    add "},";
    nl 2;
    key "gauges";
    add "{";
    List.iteri
      (fun i (name, v) ->
         row 3 i;
         key name;
         add_number v)
      snapshot.Hb_util.Telemetry.gauges;
    nl 2;
    add "},";
    nl 2;
    key "spans";
    add "[";
    List.iteri
      (fun i (name, count, wall, cpu) ->
         row 3 i;
         add "{";
         key "name";
         add_quoted name;
         field "count";
         add_int count;
         field "wall_s";
         add_number wall;
         field "cpu_s";
         add_number cpu;
         add "}")
      (Hb_util.Telemetry.aggregate_spans snapshot);
    nl 2;
    add "]";
    nl 1;
    add "}"
  end;
  let timings = r.Engine.timings in
  member "timings";
  add "{";
  key "preprocess_s";
  add_number timings.Engine.preprocess_seconds;
  field "analysis_s";
  add_number timings.Engine.analysis_seconds;
  field "constraints_s";
  add_number timings.Engine.constraints_seconds;
  field "preprocess_wall_s";
  add_number timings.Engine.preprocess_wall_seconds;
  field "analysis_wall_s";
  add_number timings.Engine.analysis_wall_seconds;
  field "constraints_wall_s";
  add_number timings.Engine.constraints_wall_seconds;
  field "peak_rss_bytes";
  (match timings.Engine.peak_rss_bytes with
   | Some bytes -> add_int bytes
   | None -> add "null");
  add "}";
  nl 0;
  add "}";
  if pretty then add "\n"

let report ?paths r =
  let buffer = Buffer.create 4096 in
  add_report ?paths Pretty buffer r;
  Buffer.contents buffer
