(* The benchmark's workloads. Each is a closed loop of one kind of op;
   the seed drives the what-if edit stream and nothing else. See
   README.md for why each exists and which layers it stresses.

   [prepare] makes the inputs — the [.hbn]/[.hbc] files the program
   reads and, for the warm start, its snapshot — and runs in a child
   process, so generating them leaves nothing in the measured process's
   heap or peak RSS. [load] is the in-process rest of the set-up. *)

module Telemetry = Hb_util.Telemetry
module Json = Hb_util.Json
module Session = Hb_sta.Session

let span = Telemetry.span

type instance = {
  op : client:int -> tag:string -> unit;  (** one op; raises on failure *)
  parts : unit -> unit -> unit;
      (** traced runs only: [parts ()] sets up, outside any part, the
          function that runs one op's worth of the layers a public call
          of [op] hides, called directly on the same inputs *)
  check : unit -> string list;  (** correctness problems; [] passes *)
  close : unit -> unit;
}

type t = {
  name : string;
  clients : int;
  prepare : dir:string -> unit;
  load : seed:int -> dir:string -> instance;
}

let library = Hb_cell.Library.default ()

(* Every analysis runs on one domain. On a 2-vCPU host the default (a
   pool domain per vCPU) left peak RSS 2.8x higher and swinging by 10%
   from run to run at scale100k (750-834 MB against 283-288 MB on one
   domain, same inputs), wider than any bound the benchmark could keep;
   the serve scheduler clamps its sessions to one domain anyway. *)
let config = { Hb_sta.Config.default with Hb_sta.Config.parallel_jobs = 1 }

(* Bench-side counters, read from the same snapshot as the engine's. *)
let c_parse_alloc = Telemetry.counter "bench.parse_alloc_bytes"
let c_holdcheck_alloc = Telemetry.counter "bench.holdcheck_alloc_bytes"
let c_restore_alloc = Telemetry.counter "bench.restore_alloc_bytes"
let c_json_bytes = Telemetry.counter "bench.json_export_bytes"
let c_snapshot_bytes = Telemetry.counter "bench.snapshot_bytes"
let c_clusters = Telemetry.counter "bench.clusters"
let c_passes = Telemetry.counter "bench.passes"
let c_invalidated = Telemetry.counter "bench.clusters_invalidated"
let c_rebuilt = Telemetry.counter "bench.clusters_rebuilt"

let with_alloc counter f =
  if not (Telemetry.enabled ()) then f ()
  else begin
    let before = Harness.allocated_bytes () in
    let result = f () in
    Telemetry.add counter
      (int_of_float (Harness.allocated_bytes () -. before));
    result
  end

let count_structure (ctx : Hb_sta.Context.t) =
  Telemetry.add c_clusters
    (Array.length ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters);
  Telemetry.add c_passes
    (Hb_sta.Passes.total_passes ctx.Hb_sta.Context.passes)

let file dir name ext = Filename.concat dir (name ^ ext)

let write_inputs ~dir ~name (design, system) =
  Harness.mkdir_p dir;
  Harness.write_file (file dir name ".hbn")
    (Hb_netlist.Hbn_format.write design);
  Harness.write_file (file dir name ".hbc")
    (Hb_clock.System.to_string system)

(* The scale designs are the repository's presets, whatever the seed.
   Seeding the generator changes the relaxation depth: on seeds 97..106
   the allocation per cold scale100k op ranged over 14%. Permuting the
   instance lines by the seed moved the peak RSS of a what-if run by 8%
   (68.7-74.8 MB; 69.6-70.8 MB unpermuted). Either is wider than the
   bound the benchmark keeps. *)
let scale100k () = Hb_workload.Scale.scale100k ()

let parse ~dir ~name =
  span "parse" (fun () ->
      with_alloc c_parse_alloc (fun () ->
          let design =
            Hb_netlist.Hbn_format.parse_file ~library (file dir name ".hbn")
          in
          (design, Hb_clock.System.parse_file (file dir name ".hbc"))))

let report_json report =
  let json =
    span "json_export.report" (fun () ->
        Hb_sta.Json_export.report ~paths:5 report)
  in
  Telemetry.add c_json_bytes (String.length json)

let worst_paths ctx slacks =
  span "paths.worst_paths" (fun () ->
      ignore
        (Hb_sta.Paths.worst_paths ctx slacks ~limit:5 : Hb_sta.Paths.path list))

let final (report : Hb_sta.Engine.report) =
  report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final

(* ------------------------------------------------------------------ *)
(* Cold file → report: table1-cold, scale100k-cold                     *)
(* ------------------------------------------------------------------ *)

(* What [hummingbird analyse --json --paths 5] does: read the files, run
   the engine with constraints and hold checks on, render the report. *)
let file_to_report ~config ~dir ~name =
  let design, system = parse ~dir ~name in
  let report =
    span "engine.analyse" (fun () ->
        Hb_sta.Engine.analyse ~design ~system ~config ())
  in
  report_json report;
  report

(* The layers [Engine.analyse] and [Json_export.report] hide, one after
   another on the same files. *)
let cold_part ~config ~dir ~name =
  let design =
    Hb_netlist.Hbn_format.parse_file ~library (file dir name ".hbn")
  in
  let system = Hb_clock.System.parse_file (file dir name ".hbc") in
  let elements =
    span "elements.build" (fun () ->
        Hb_sta.Elements.build ~design ~system ~config)
  in
  let table =
    span "cluster.extract" (fun () ->
        Hb_sta.Cluster.extract ~design ~elements ())
  in
  ignore
    (span "passes.build" (fun () ->
         Hb_sta.Passes.build ~system ~elements ~table)
     : Hb_sta.Passes.t);
  let ctx = Hb_sta.Context.make ~design ~system ~config () in
  count_structure ctx;
  let outcome = Hb_sta.Algorithm1.run ctx in
  ignore
    (span "slacks.final" (fun () -> Hb_sta.Slacks.compute ~force:true ctx)
     : Hb_sta.Slacks.t);
  ignore
    (span "holdcheck.check" (fun () ->
         with_alloc c_holdcheck_alloc (fun () -> Hb_sta.Holdcheck.check ctx))
     : Hb_sta.Holdcheck.violation list);
  worst_paths ctx outcome.Hb_sta.Algorithm1.final

let no_close () = ()

(* SM1H is left out: its hierarchical macro cells are not in the default
   library, so it cannot round-trip through [.hbn]. *)
let table1_designs =
  [ ("des", fun () -> Hb_workload.Chips.des ());
    ("alu", fun () -> Hb_workload.Chips.alu ());
    ("sm1f", fun () -> Hb_workload.Chips.sm1f ());
    ("dsp", fun () -> Hb_workload.Chips.dsp ()) ]

let table1_cold =
  { name = "table1-cold";
    clients = 1;
    prepare =
      (fun ~dir ->
         List.iter
           (fun (name, make) -> write_inputs ~dir ~name (make ()))
           table1_designs);
    load =
      (fun ~seed:_ ~dir ->
         { op =
             (fun ~client:_ ~tag:_ ->
                List.iter
                  (fun (name, _) ->
                     span ("design." ^ name) (fun () ->
                         ignore
                           (file_to_report ~config ~dir ~name
                            : Hb_sta.Engine.report)))
                  table1_designs);
           parts =
             (fun () () ->
                List.iter
                  (fun (name, _) -> cold_part ~config ~dir ~name)
                  table1_designs);
           check =
             (fun () ->
                List.concat_map
                  (fun (name, _) ->
                     Gates.diff ~label:name ~expected:(Gates.corpus ~name)
                       ~actual:
                         (Gates.expectation ~name
                            (file_to_report ~config ~dir ~name)))
                  table1_designs);
           close = no_close;
         });
  }

let scale100k_cold =
  let name = "scale100k" in
  let flat = config in
  let config = { flat with Hb_sta.Config.macro = true } in
  { name = "scale100k-cold";
    clients = 1;
    prepare =
      (fun ~dir -> write_inputs ~dir ~name (scale100k ()));
    load =
      (fun ~seed:_ ~dir ->
         { op =
             (fun ~client:_ ~tag:_ ->
                ignore
                  (file_to_report ~config ~dir ~name : Hb_sta.Engine.report));
           parts = (fun () () -> cold_part ~config ~dir ~name);
           check =
             (fun () ->
                (* Macro-level relaxation must reproduce the flat engine. *)
                let macro =
                  Gates.expectation ~name (file_to_report ~config ~dir ~name)
                in
                let design, system = parse ~dir ~name in
                let flat =
                  Gates.expectation ~name
                    (Hb_sta.Engine.analyse ~design ~system ~config:flat ())
                in
                Gates.diff ~label:"macro vs flat" ~expected:flat
                  ~actual:macro);
           close = no_close;
         });
  }

(* ------------------------------------------------------------------ *)
(* Serve what-if rounds: scale10k-whatif                               *)
(* ------------------------------------------------------------------ *)

let rpc sched client ~tag ~meth params =
  let line =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Number 1.0);
           ("request_id", Json.String tag);
           ("method", Json.String meth);
           ("params", Json.Obj params) ])
  in
  let reply = Hb_sta.Serve.submit sched client line in
  match Json.parse reply with
  | Json.Obj fields as v
    when List.assoc_opt "status" fields = Some (Json.String "ok") ->
    Option.value ~default:Json.Null (Json.member "result" v)
  | _ -> failwith (Printf.sprintf "%s failed: %s" meth reply)

let analyse_params =
  [ ("constraints", Json.Bool false); ("hold", Json.Bool false) ]

let analyse_quietly s =
  Session.analyse ~generate_constraints:false ~check_hold:false s

(* The fields of two reports that differ, but for their wall times. *)
let differing_fields a b =
  let keys = function Json.Obj fields -> List.map fst fields | _ -> [] in
  List.filter
    (fun key -> key <> "timings" && Json.member key a <> Json.member key b)
    (List.sort_uniq String.compare (keys a @ keys b))

(* A worst-path list as (start, end, slack bits), the way the [paths]
   reply names it: its slacks round-trip, so they compare bit for bit. *)
let path_triple ~start ~stop slack = (start, stop, Int64.bits_of_float slack)

let served_paths reply =
  let text key p = Option.bind (Json.member key p) Json.to_text in
  match Json.member "paths" reply with
  | Some (Json.List paths) ->
    List.map
      (fun p ->
         path_triple
           ~start:(Option.value ~default:"" (text "start" p))
           ~stop:(Option.value ~default:"" (text "end" p))
           (Option.value ~default:nan
              (Option.bind (Json.member "slack" p) Json.to_float)))
      paths
  | _ -> []

let session_paths s ~limit =
  let elements = (Session.context s).Hb_sta.Context.elements in
  let label e =
    (Hb_sta.Elements.element elements e).Hb_sync.Element.label
  in
  List.map
    (fun (p : Hb_sta.Paths.path) ->
       path_triple
         ~start:(label p.Hb_sta.Paths.start_element)
         ~stop:(label p.Hb_sta.Paths.end_element)
         p.Hb_sta.Paths.slack)
    (Session.worst_paths s ~limit)

let whatif_clients = 2

let scale10k_whatif =
  let name = "scale10k" in
  { name = "scale10k-whatif";
    clients = whatif_clients;
    prepare =
      (fun ~dir ->
         let design, system = Hb_workload.Scale.scale10k () in
         write_inputs ~dir ~name (design, system);
         (* Edit targets: the gates on the 64 worst paths. *)
         let probe = Session.create ~design ~system ~config () in
         let names =
           Session.worst_paths probe ~limit:64
           |> List.concat_map (fun (p : Hb_sta.Paths.path) ->
               p.Hb_sta.Paths.hops)
           |> List.filter_map (fun (h : Hb_sta.Paths.hop) ->
               h.Hb_sta.Paths.via)
           |> List.sort_uniq compare
           |> List.map (fun i ->
               (Hb_netlist.Design.instance design i)
                 .Hb_netlist.Design.inst_name)
         in
         Session.close probe;
         if List.length names < whatif_clients then
           failwith "scale10k-whatif: too few gates on the worst paths";
         Harness.write_file (file dir "pool" ".txt")
           (String.concat "\n" names));
    load =
      (fun ~seed ~dir ->
         let pool =
           Harness.read_file (file dir "pool" ".txt")
           |> String.split_on_char '\n'
           |> Array.of_list
         in
         (* Client c edits only its own half of the pool, so the two
            streams commute and a serial replay must agree with them. *)
         let half = Array.length pool / whatif_clients in
         let targets =
           Array.init whatif_clients (fun c -> Array.sub pool (c * half) half)
         in
         let rngs =
           Array.init whatif_clients (fun c ->
               Hb_util.Rng.create (Int64.of_int ((seed * 7919) + c)))
         in
         let edits = Array.make whatif_clients [] in
         let next_edit c =
           ( Hb_util.Rng.choose rngs.(c) targets.(c),
             0.8 +. Hb_util.Rng.float rngs.(c) 0.4 )
         in
         let daemon = Hb_sta.Serve.create ~library () in
         let sched =
           Hb_sta.Serve.start_scheduler daemon ~workers:whatif_clients
             ~queue_capacity:64
         in
         let handles =
           Array.init whatif_clients (fun _ -> Hb_sta.Serve.client daemon)
         in
         Array.iter
           (fun h ->
              ignore
                (rpc sched h ~tag:"load" ~meth:"load"
                   [ ("netlist", Json.String (file dir name ".hbn"));
                     ("clocks", Json.String (file dir name ".hbc")) ]
                 : Json.t))
           handles;
         let fresh_session () =
           let design, system = parse ~dir ~name in
           Session.create ~design ~system ~config ()
         in
         let apply s (instance, factor) =
           Session.apply s [ Hb_sta.Edit.Scale_delay { instance; factor } ]
         in
         let replay = ref None in
         { op =
             (fun ~client ~tag ->
                let rpc = rpc sched handles.(client) ~tag in
                let ((instance, factor) as edit) = next_edit client in
                let applied =
                  span "serve.edit" (fun () ->
                      rpc ~meth:"edit"
                        [ ( "commands",
                            Json.List
                              [ Json.Obj
                                  [ ("op", Json.String "scale_delay");
                                    ("instance", Json.String instance);
                                    ("factor", Json.Number factor) ] ] ) ])
                in
                edits.(client) <- edit :: edits.(client);
                (match Json.member "clusters_invalidated" applied with
                 | Some (Json.Number n) ->
                   Telemetry.add c_invalidated (int_of_float n)
                 | _ -> ());
                ignore
                  (span "serve.analyse" (fun () ->
                       rpc ~meth:"analyse" analyse_params)
                   : Json.t);
                ignore
                  (span "serve.paths" (fun () ->
                       rpc ~meth:"paths" [ ("limit", Json.Number 5.0) ])
                   : Json.t));
           parts =
             (fun () ->
                (* A single-client replay of client 0's stream straight
                   against a session of its own. *)
                let s = fresh_session () in
                replay := Some s;
                let stream = Array.of_list (List.rev edits.(0)) in
                let cursor = ref 0 in
                fun () ->
                  let edit = stream.(!cursor mod Array.length stream) in
                  incr cursor;
                  let result = span "session.apply" (fun () -> apply s edit) in
                  Telemetry.add c_invalidated
                    result.Session.clusters_invalidated;
                  report_json
                    (span "session.analyse" (fun () -> analyse_quietly s));
                  count_structure (Session.context s);
                  span "paths.worst_paths" (fun () ->
                      ignore
                        (Session.worst_paths s ~limit:5
                         : Hb_sta.Paths.path list)));
           check =
             (fun () ->
                (* The served session is seen through its replies: the
                   analyse report, whose numbers are printed to 6
                   decimals, in every field but its wall times; and the
                   worst paths, bit for bit. *)
                let limit = Gates.path_limit in
                let rpc = rpc sched handles.(0) ~tag:"check" in
                let served = rpc ~meth:"analyse" analyse_params in
                let served_paths =
                  served_paths
                    (rpc ~meth:"paths"
                       [ ("limit", Json.Number (float_of_int limit)) ])
                in
                let s = fresh_session () in
                for c = 0 to whatif_clients - 1 do
                  List.iter
                    (fun e -> ignore (apply s e : Session.apply_result))
                    (List.rev edits.(c))
                done;
                let replayed =
                  Json.parse (Hb_sta.Json_export.report (analyse_quietly s))
                in
                let replayed_paths = session_paths s ~limit in
                Session.close s;
                List.map
                  (Printf.sprintf "serial replay: report field %s differs")
                  (differing_fields served replayed)
                @
                if served_paths = replayed_paths then []
                else
                  [ Printf.sprintf
                      "serial replay: the %d worst paths differ" limit ]);
           close =
             (fun () ->
                Option.iter Session.close !replay;
                Array.iter (Hb_sta.Serve.release_client daemon) handles;
                Hb_sta.Serve.stop_scheduler sched;
                Hb_sta.Serve.shutdown_sessions daemon);
         });
  }

(* ------------------------------------------------------------------ *)
(* Snapshot warm start and structural ECO: scale100k-warm/-eco         *)
(* ------------------------------------------------------------------ *)

let scale100k_warm =
  let name = "scale100k" in
  { name = "scale100k-warm";
    clients = 1;
    prepare =
      (fun ~dir ->
         write_inputs ~dir ~name (scale100k ());
         let design, system = parse ~dir ~name in
         let s = Session.create ~design ~system ~config () in
         let cold = Gates.expectation ~name (Session.analyse s) in
         Session.save_snapshot s ~path:(file dir name ".hbs");
         Session.close s;
         Hb_workload.Golden.save ~dir cold);
    load =
      (fun ~seed:_ ~dir ->
         let path = file dir name ".hbs" in
         let bytes = (Unix.stat path).Unix.st_size in
         let resave = file dir "resave" ".hbs" and restored = ref None in
         { op =
             (fun ~client:_ ~tag:_ ->
                let s =
                  span "snapshot.restore" (fun () ->
                      with_alloc c_restore_alloc (fun () ->
                          Session.of_snapshot ~path))
                in
                Telemetry.add c_snapshot_bytes bytes;
                report_json
                  (span "session.analyse" (fun () -> Session.analyse s));
                span "session.close" (fun () -> Session.close s));
           parts =
             (fun () ->
                let s = Session.of_snapshot ~path in
                restored := Some s;
                fun () ->
                  span "snapshot.save" (fun () ->
                      Session.save_snapshot s ~path:resave);
                  count_structure (Session.context s);
                  worst_paths (Session.context s) (final (Session.analyse s)));
           check =
             (fun () ->
                let s = Session.of_snapshot ~path in
                let warm = Gates.expectation ~name (Session.analyse s) in
                Session.close s;
                match Hb_workload.Golden.load ~dir name with
                | Some cold ->
                  Gates.diff ~label:"restored vs cold" ~expected:cold
                    ~actual:warm
                | None -> [ "cold expectation missing" ]);
           close = (fun () -> Option.iter Session.close !restored);
         });
  }

let scale100k_eco =
  let name = "scale100k" in
  { name = "scale100k-eco";
    clients = 1;
    prepare =
      (fun ~dir -> write_inputs ~dir ~name (scale100k ()));
    load =
      (fun ~seed:_ ~dir ->
         let design, system = parse ~dir ~name in
         let s = Session.create ~design ~system ~config () in
         ignore (Session.analyse s : Session.report);
         (* The batch: the first 4 upsizable gates, by name, on the 8
            worst paths, and the batch that puts their cells back. An op
            applies both, so every op does the same work and leaves the
            session as it found it. *)
         let by_name (a : Hb_netlist.Design.instance) b =
           String.compare a.Hb_netlist.Design.inst_name
             b.Hb_netlist.Design.inst_name
         in
         let gates =
           Session.worst_paths s ~limit:8
           |> List.concat_map (fun (p : Hb_sta.Paths.path) ->
               p.Hb_sta.Paths.hops)
           |> List.filter_map (fun (h : Hb_sta.Paths.hop) ->
               h.Hb_sta.Paths.via)
           |> List.map (Hb_netlist.Design.instance design)
           |> List.sort_uniq by_name
           |> List.filter_map (fun (inst : Hb_netlist.Design.instance) ->
               let cell = inst.Hb_netlist.Design.cell in
               Option.map
                 (fun big -> (inst.Hb_netlist.Design.inst_name, cell, big))
                 (Hb_cell.Library.upsize library cell))
           |> List.filteri (fun i _ -> i < 4)
         in
         if gates = [] then
           failwith "scale100k-eco: no upsizable gate on the worst paths";
         let batch pick =
           List.map
             (fun (instance, small, big) ->
                Hb_sta.Edit.Resize_gate { instance; cell = pick (small, big) })
             gates
         in
         let up = batch snd and down = batch fst in
         let eco edits =
           let result =
             span "session.apply" (fun () -> Session.apply s edits)
           in
           Telemetry.add c_rebuilt result.Session.clusters_rebuilt;
           Telemetry.add c_invalidated result.Session.clusters_invalidated;
           span "session.analyse" (fun () -> Session.analyse s)
         in
         { op =
             (fun ~client:_ ~tag:_ ->
                report_json (eco up);
                report_json (eco down));
           parts =
             (fun () () ->
                let ctx = Session.context s in
                count_structure ctx;
                worst_paths ctx (final (Session.analyse s));
                ignore
                  (span "slacks.final" (fun () ->
                       Hb_sta.Slacks.compute ~force:true ctx)
                   : Hb_sta.Slacks.t));
           check =
             (fun () ->
                let report = eco up in
                let edited =
                  report.Session.context.Hb_sta.Context.design
                in
                Gates.diff ~label:"post-ECO session vs fresh engine"
                  ~expected:
                    (Gates.expectation ~name
                       (Hb_sta.Engine.analyse ~design:edited ~system ~config
                          ()))
                  ~actual:(Gates.expectation ~name report));
           close = (fun () -> Session.close s);
         });
  }

let all =
  [ table1_cold; scale100k_cold; scale10k_whatif; scale100k_warm;
    scale100k_eco ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
