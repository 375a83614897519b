(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, the ablations listed in DESIGN.md, and the gates of the
   engines added since.

   Sections (ids match DESIGN.md / EXPERIMENTS.md):
     T1  — Table 1: run times for DES / ALU / SM1F / SM1H (+ DSP)
     F1  — Figure 1: minimum settling times for time-multiplexed logic
     F3  — Figure 3: transparent-latch offset window (worked example)
     F4  — Figure 4: clock-edge graph break-open example
     A1  — block method vs. exact path enumeration
     A2  — minimum passes vs. per-source-edge settling times
     A3  — Algorithm 1 iteration count vs. clock period
     A4  — Algorithm 3 redesign convergence
     A5  — rise/fall-separated arrivals vs. scalar arrivals
     A6  — component-delay estimators (lumped vs. RC/Elmore)
     A7  — false-path pessimism vs. static sensitisation
     A8  — ECO resize batch vs. full rebuild
     S1  — scaling: analysis cost vs. design size
     P1  — incremental/parallel slack engine vs. sequential
     P2  — k-worst paths: predecessor pool vs. seed enumerator
     P3  — telemetry: disabled-site cost and live counters
     P4  — session what-if throughput vs. one-shot analysis
     S2  — timing macros vs. flat relaxation at 10k / 100k / 1M cells
     P5  — snapshot warm start vs. cold start
     S3  — concurrent serve throughput
     O1  — windowed p99 and SLO burn under 128 streams
     V1  — differential fuzz throughput and sabotage detection

   Each section times with [timed], checks with [gate] and prints its
   results with [emit], which also writes the section's BENCH_*.json
   where it has one. A failed gate is recorded and the run goes on; at
   the end the run lists every failed gate and exits 1, or exits 0 when
   none failed. An uncaught exception exits 2.

   Run with:
     dune exec bench/main.exe             every section
     dune exec bench/main.exe -- --smoke  P1-P4, S2, P5, S3, O1 and V1 on
                                          small inputs, without the
                                          speed bars of P5 and S2
   [--trace FILE] also writes P3's spans as a Chrome trace, and
   [--load-socket PATH [--clients N] [--requests K]] runs only the serve
   load client (see [serve_socket_client]). *)

module Json = Hb_util.Json
module Telemetry = Hb_util.Telemetry

let lib = Hb_cell.Library.default ()

(* ------------------------------------------------------------------ *)
(* Harness: one timer, one gate, one emitter                          *)
(* ------------------------------------------------------------------ *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [timed ?repeat f] runs [f] [repeat] times (default 3) and returns the
   median wall seconds with the last run's result. Wall, not cpu,
   seconds: n domains busy for t seconds report n*t of cpu time. *)
let timed ?(repeat = 3) f =
  let rec go n times =
    let t0 = now () in
    let result = f () in
    let times = (now () -. t0) :: times in
    if n > 1 then go (n - 1) times
    else (List.nth (List.sort Float.compare times) (repeat / 2), result)
  in
  go repeat []

(* Bytes [f] allocates on every heap of the calling domain, counted as
   test_perf counts words: the minor heap is emptied first, then minor
   words plus major words less promoted ones (a promoted word is in
   both). On OCaml 5.1.1 [Gc.allocated_bytes] reads [Gc.counters], whose
   minor count sees what the minor heap holds since its last collection
   at an eighth of its size; [Gc.minor_words] reads it exactly. *)
let allocated_bytes_of f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  Gc.minor ();
  let before = words () in
  f ();
  (words () -. before) *. float_of_int (Sys.word_size / 8)

let section_id = ref ""
let failed_gates = ref []

let section id title =
  section_id := id;
  Printf.printf "\n==================== %s: %s ====================\n" id title

(* [gate ok fmt ...] records a failed gate under the current section
   when [ok] is false, and the run goes on. Call it from the main thread
   only: client threads count their failures for the section to gate
   on after the joins. *)
let gate ok fmt =
  Printf.ksprintf
    (fun message ->
       if not ok then begin
         Printf.printf "GATE FAILED %s: %s\n%!" !section_id message;
         failed_gates := (!section_id, message) :: !failed_gates
       end)
    fmt

let finish () =
  let failed = List.rev !failed_gates in
  Printf.printf "\n%d gate(s) failed\n" (List.length failed);
  List.iter (fun (id, message) -> Printf.printf "  %s: %s\n" id message) failed;
  exit (if failed = [] then 0 else 1)

(* One table cell and, when [key] is not empty, its JSON field. A
   [field] cell has no [head] and goes to the JSON file only. *)
type cell = {
  head : string;
  key : string;
  shown : string;
  json : Json.t;
  align : Hb_util.Table.align;
}

let text ?(key = "") head s =
  { head; key; shown = s; json = Json.String s; align = Left }

let count ?(key = "") head n =
  { head; key; shown = string_of_int n; json = Json.Number (float_of_int n);
    align = Right }

(* JSON numbers carry six decimals; a non-finite [x] is written as
   null. *)
let number x = Json.Number (Float.round (x *. 1e6) /. 1e6)

(* A non-finite [x] is a missing value: "-" in the table, null in JSON. *)
let num ?(key = "") ?(fmt : (float -> string, unit, string) format = "%.4f")
    head x =
  { head; key; align = Right; json = number x;
    shown = (if Float.is_finite x then Printf.sprintf fmt x else "-") }

let ratio ?key head x = num ?key ~fmt:"%.1fx" head x

(* Shown in MB, written in bytes. *)
let mb ?key head bytes =
  { (num ?key ~fmt:"%.2f" head (bytes /. 1e6)) with json = Json.Number bytes }

let field key json = { head = ""; key; shown = ""; json; align = Left }

(* [emit rows] prints [rows] as one table. With [~bench:name] it also
   writes BENCH_<name>.json, atomically: {"benchmark": name}, then
   [fields], then the keyed cells of the rows -- one object per row in a
   list under [~list], or else all in the top-level object. *)
let emit ?bench ?(fields = []) ?list rows =
  (match rows with
   | [] -> ()
   | first :: _ ->
     let shown row = List.filter (fun c -> c.head <> "") row in
     Hb_util.Table.print
       ~header:(List.map (fun c -> c.head) (shown first))
       ~align:(List.map (fun c -> c.align) (shown first))
       (List.map (fun row -> List.map (fun c -> c.shown) (shown row)) rows));
  match bench with
  | None -> ()
  | Some name ->
    let keyed row =
      List.filter_map
        (fun c -> if c.key = "" then None else Some (c.key, c.json))
        row
    in
    let body =
      match list with
      | Some key ->
        [ (key, Json.List (List.map (fun row -> Json.Obj (keyed row)) rows)) ]
      | None -> List.concat_map keyed rows
    in
    let path = Printf.sprintf "BENCH_%s.json" name in
    Hb_util.Text.write_atomic path
      (Json.to_string
         (Json.Obj ((("benchmark", Json.String name) :: fields) @ body))
       ^ "\n");
    Printf.printf "\nwrote %s\n" path

let speedup slow fast = slow /. Stdlib.max 1e-9 fast

(* ------------------------------------------------------------------ *)
(* Shared workloads and checks                                        *)
(* ------------------------------------------------------------------ *)

(* The paper's Table 1 designs, plus DSP: a multirate (1x + 2x clocks)
   datapath that is not in the paper's table, added to exercise
   multi-frequency analysis at scale. *)
let chips =
  [ ("DES", fun () -> Hb_workload.Chips.des ());
    ("ALU", fun () -> Hb_workload.Chips.alu ());
    ("SM1F", fun () -> Hb_workload.Chips.sm1f ());
    ("SM1H", fun () -> Hb_workload.Chips.sm1h ());
    ("DSP", fun () -> Hb_workload.Chips.dsp ()) ]

let chip name = (name, List.assoc name chips)

let verdict (outcome : Hb_sta.Algorithm1.outcome) =
  match outcome.Hb_sta.Algorithm1.status with
  | Hb_sta.Algorithm1.Meets_timing -> "ok"
  | Hb_sta.Algorithm1.Slow_paths -> "slow"

(* Median wall seconds of a full Algorithm 1 run from reset offsets,
   with the last run's outcome. *)
let analysis_time ctx =
  timed (fun () ->
      Hb_sta.Elements.reset_offsets ctx.Hb_sta.Context.elements;
      Hb_sta.Algorithm1.run ctx)

(* The cluster of a pre-processed design that needs the most per-edge
   settling times, as (its minimum passes, its per-edge settling
   times). *)
let busiest_cluster (ctx : Hb_sta.Context.t) =
  List.fold_left
    (fun acc (_, passes, naive) -> if naive > snd acc then (passes, naive) else acc)
    (0, 0)
    (Hb_sta.Passes.cluster_settling_times ctx.Hb_sta.Context.passes
       ~table:ctx.Hb_sta.Context.table)

(* Gates that [b] reproduces [a] bit for bit: the worst slack and every
   element's input slack. Returns whether it does. *)
let same_slacks what (a : Hb_sta.Slacks.t) (b : Hb_sta.Slacks.t) =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let sa = a.Hb_sta.Slacks.element_input_slack in
  let sb = b.Hb_sta.Slacks.element_input_slack in
  let worst_ok = same a.Hb_sta.Slacks.worst b.Hb_sta.Slacks.worst in
  gate worst_ok "%s: worst slack %h differs from %h" what
    b.Hb_sta.Slacks.worst a.Hb_sta.Slacks.worst;
  match
    Seq.find (fun e -> not (same sa.(e) sb.(e)))
      (Seq.init (Array.length sa) Fun.id)
  with
  | Some e ->
    gate false "%s: element %d slack %h differs from %h" what e sb.(e) sa.(e);
    false
  | None -> worst_ok

(* The combinational instances on a session's [limit] worst paths,
   without repeats, in design order. *)
let worst_path_instances session ~limit =
  let design = (Hb_sta.Session.context session).Hb_sta.Context.design in
  match
    Hb_sta.Session.worst_paths session ~limit
    |> List.concat_map (fun (p : Hb_sta.Paths.path) -> p.Hb_sta.Paths.hops)
    |> List.filter_map (fun (hop : Hb_sta.Paths.hop) -> hop.Hb_sta.Paths.via)
    |> List.sort_uniq compare
  with
  | [] -> failwith "no combinational instance on the worst paths"
  | indices -> List.map (Hb_netlist.Design.instance design) indices

(* One serve request: [send] carries the request line to a daemon and
   returns its reply line. [Error reply] unless the reply's status is
   "ok". *)
let serve_request ?request_id send ~id meth params =
  let fields =
    [ ("id", Json.Number (float_of_int id)); ("method", Json.String meth) ]
    @ (match request_id with
        | Some rid -> [ ("request_id", Json.String rid) ]
        | None -> [])
    @ if params = [] then [] else [ ("params", Json.Obj params) ]
  in
  let reply = send (Json.to_string (Json.Obj fields)) in
  match Json.parse_result reply with
  | Ok (Json.Obj obj)
    when List.assoc_opt "status" obj = Some (Json.String "ok") -> Ok ()
  | _ -> Error reply

(* The params of an [edit] request scaling [instance]'s delays. *)
let scale_edit instance factor =
  [ ( "commands",
      Json.List
        [ Json.Obj
            [ ("op", Json.String "scale_delay");
              ("instance", Json.String instance);
              ("factor", Json.Number factor) ] ] ) ]

(* Runs each stream on a thread of its own and joins them all; returns
   the wall seconds and how many streams raised. A thread's exception
   ends only that thread, so the caller gates on the count. *)
let run_streams streams =
  let failed = Atomic.make 0 in
  let guarded f () =
    try f () with
    | e ->
      Atomic.incr failed;
      Printf.eprintf "%s: client stream failed: %s\n%!" !section_id
        (Printexc.to_string e)
  in
  let seconds, () =
    timed ~repeat:1 (fun () ->
        Array.map (fun f -> Thread.create (guarded f) ()) streams
        |> Array.iter Thread.join)
  in
  (seconds, Atomic.get failed)

(* [with_scale10k_daemon ~workers ~queue ~clients f] starts a daemon
   whose scheduler runs [workers] domains behind a queue of [queue]
   requests, and binds [clients] handles to one shared scale10k
   session: the first load pays preprocessing and a constraints read
   warms its caches, the other loads hit the registry. [f daemon call
   handles] then runs with telemetry on; [call client meth params]
   raises unless the reply is ok. Afterwards the daemon is torn down and
   telemetry is off and empty. *)
let with_scale10k_daemon ~workers ~queue ~clients f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let daemon =
    Hb_sta.Serve.create
      ~generators:[ ("scale10k", fun () -> Hb_workload.Scale.scale10k ()) ]
      ()
  in
  let sched = Hb_sta.Serve.start_scheduler daemon ~workers ~queue_capacity:queue in
  let seq = Atomic.make 0 in
  let call client meth params =
    let id = Atomic.fetch_and_add seq 1 + 1 in
    match serve_request (Hb_sta.Serve.submit sched client) ~id meth params with
    | Ok () -> ()
    | Error reply -> failwith (Printf.sprintf "%s failed: %s" meth reply)
  in
  let handles = Array.init clients (fun _ -> Hb_sta.Serve.client daemon) in
  let load client = call client "load" [ ("generator", Json.String "scale10k") ] in
  load handles.(0);
  call handles.(0) "constraints" [];
  Array.iteri (fun i client -> if i > 0 then load client) handles;
  let result = f daemon call handles in
  Array.iter (Hb_sta.Serve.release_client daemon) handles;
  Hb_sta.Serve.stop_scheduler sched;
  Hb_sta.Serve.shutdown_sessions daemon;
  Telemetry.set_enabled false;
  Telemetry.reset ();
  result

let histogram name = Telemetry.read_histogram (Telemetry.histogram name)

(* The [q] quantile in ms of the latency histogram [name], over the
   observations since the snapshot [since] of it, or all of them; nan
   when there are none. *)
let quantile_ms ?since name q =
  let h = histogram name in
  let counts =
    match since with
    | Some (b : Telemetry.histogram_snapshot) ->
      Array.mapi (fun i n -> n - b.Telemetry.bucket_counts.(i))
        h.Telemetry.bucket_counts
    | None -> h.Telemetry.bucket_counts
  in
  match Telemetry.quantile ~bounds:h.Telemetry.upper_bounds ~counts q with
  | Some s -> s *. 1000.0
  | None -> nan

let argv_value name =
  let rec scan = function
    | flag :: value :: _ when flag = name -> Some value
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (List.tl (Array.to_list Sys.argv))

(* ------------------------------------------------------------------ *)
(* T1 — Table 1                                                       *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "T1" "Table 1 — run times (wall seconds)";
  Printf.printf
    "paper: VAX 8800 cpu seconds; DES total was 14.87 s. Absolute times\n\
     differ on modern hardware; the shape to check is the scaling with\n\
     design size and the SM1H (hierarchical) speed-up over SM1F. DSP is\n\
     not in the paper's table. Wall seconds, median of 3.\n\n";
  emit
    (List.map
       (fun (name, make) ->
          let design, system = make () in
          let stats = Hb_netlist.Stats.compute design in
          let pre, _ =
            timed (fun () -> Hb_sta.Context.make ~design ~system ())
          in
          let analysis, outcome =
            analysis_time (Hb_sta.Context.make ~design ~system ())
          in
          [ text "example" name;
            count "cells" stats.Hb_netlist.Stats.cells;
            count "nets" stats.Hb_netlist.Stats.nets;
            num "pre-process s" pre;
            num "analysis s" analysis;
            text "verdict" (verdict outcome) ])
       chips)

(* ------------------------------------------------------------------ *)
(* F1 — Figure 1                                                      *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section "F1" "Figure 1 — minimum number of settling times";
  let design, system = Hb_workload.Figures.figure1 () in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let passes, per_edge = busiest_cluster ctx in
  let settling =
    Hb_sta.Passes.settling_times ctx.Hb_sta.Context.passes
      ~table:ctx.Hb_sta.Context.table
  in
  Printf.printf
    "four-phase time-multiplexed cone: %d analysis passes (paper: 2);\n\
     per-source-edge accounting needs %d (paper narrative: 4)\n"
    passes per_edge;
  Printf.printf "whole design: %d passes minimum vs %d per-edge\n"
    settling.Hb_sta.Passes.minimized_passes
    settling.Hb_sta.Passes.naive_settling_times;
  gate ((passes, per_edge) = (2, 4))
    "the cone needs %d passes and %d per-edge settling times; the paper \
     has 2 and 4" passes per_edge

(* ------------------------------------------------------------------ *)
(* F3 — Figure 3                                                      *)
(* ------------------------------------------------------------------ *)

let figure3 () =
  section "F3" "Figure 3 — transparent-latch offset relationship";
  let kind = Hb_cell.Kind.Transparent_latch in
  let params =
    { Hb_sync.Model.setup = 0.0; d_cz = 0.0; d_dz = 0.0; pulse_width = 20.0;
      control_delay = 0.0 }
  in
  Printf.printf
    "paper worked example: 20 ns pulse, no internal delays, output asserted\n\
     5 ns after the pulse begins => O_zd = 5 ns, O_dz = -15 ns\n";
  let o_dz = -15.0 in
  let o_zd = Hb_sync.Model.o_zd kind params ~o_dz in
  Printf.printf "computed: O_zd = %.1f ns for O_dz = %.1f ns\n" o_zd o_dz;
  gate (Float.abs (o_zd -. 5.0) < 1e-9) "O_zd = %g ns; the paper has 5 ns" o_zd;
  let interval = Hb_sync.Model.o_dz_interval kind params in
  Printf.printf "offset window: O_dz in [%.1f, %.1f], O_zd in [%.1f, %.1f]\n"
    (Hb_util.Interval.lo interval) (Hb_util.Interval.hi interval)
    (Hb_sync.Model.o_zd kind params ~o_dz:(Hb_util.Interval.lo interval))
    (Hb_sync.Model.o_zd kind params ~o_dz:(Hb_util.Interval.hi interval))

(* ------------------------------------------------------------------ *)
(* F4 — Figure 4                                                      *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  section "F4" "Figure 4 — breaking open the clock period";
  let _system, labels = Hb_workload.Figures.figure4_edges () in
  Printf.printf "clock edges (circular order): %s\n"
    (String.concat " "
       (List.map
          (fun (label, edge) ->
             Printf.sprintf "%s=%s" label (Hb_clock.Edge.to_string edge))
          labels));
  (* Requirement of the worked example: edge E before edge C. *)
  let node_of label =
    Option.get (List.find_index (fun (l, _) -> l = label) labels)
  in
  let req = { Hb_clock.Break.before = node_of "E"; after = node_of "C" } in
  match Hb_clock.Break.solve ~node_count:8 [ req ] with
  | [ cut ] ->
    let position (label, _) =
      Hb_clock.Break.position ~node_count:8 ~cut (node_of label)
    in
    let order =
      List.sort (fun a b -> compare (position a) (position b)) labels
    in
    Printf.printf
      "requirement \"E before C\": solver removes arc %d; resulting order: %s\n"
      cut
      (String.concat " " (List.map fst order));
    Printf.printf "(paper: removing arc D->E gives E F G H A B C D)\n";
    gate (Hb_clock.Break.satisfies ~node_count:8 ~cut req)
      "removing arc %d does not put E before C" cut
  | cuts -> gate false "the solver removes %d arcs, not 1" (List.length cuts)

(* ------------------------------------------------------------------ *)
(* A1 — block vs path enumeration                                     *)
(* ------------------------------------------------------------------ *)

let ablate_block_vs_paths () =
  section "A1" "block method vs exact path enumeration";
  Printf.printf
    "same verdicts, very different cost (the reason Section 7 chooses the\n\
     block method). Both evaluate from scratch: the block method runs on a\n\
     sequential context, which has no incremental cache. Wall seconds,\n\
     median of 3; every endpoint's slack must agree to 1e-6.\n\n";
  emit
    (List.map
       (fun stages ->
          let design, system =
            Hb_workload.Pipelines.two_phase ~width:6 ~stages
              ~gates_per_stage:60 ()
          in
          let ctx =
            Hb_sta.Context.make ~design ~system
              ~config:Hb_sta.Config.sequential ()
          in
          let block_s, block = timed (fun () -> Hb_sta.Slacks.compute ctx) in
          let enum_s, enum =
            timed (fun () -> Hb_sta.Reference.evaluate ctx ~max_paths:5_000_000)
          in
          let agree =
            Array.for_all2
              (fun s b ->
                 (not (Hb_util.Time.is_finite s)) || Float.abs (s -. b) < 1e-6)
              enum.Hb_sta.Reference.element_input_slack
              block.Hb_sta.Slacks.element_input_slack
          in
          gate agree "%d stages: block and enumeration slacks disagree" stages;
          [ count "stages" stages;
            count "paths_walked" enum.Hb_sta.Reference.paths_walked;
            num ~fmt:"%.6f" "block s" block_s;
            num ~fmt:"%.6f" "enumeration s" enum_s;
            ratio "ratio" (speedup enum_s block_s);
            text "agree" (if agree then "yes" else "NO") ])
       [ 2; 3; 4; 5 ])

(* ------------------------------------------------------------------ *)
(* A2 — pass minimisation                                             *)
(* ------------------------------------------------------------------ *)

(* A cone fed by latches on n phases, captured on two phases: the
   generalised Figure 1. *)
let n_phase_cone n =
  let period = 100.0 in
  let system =
    Hb_clock.System.make ~overall_period:period
      (List.init n (fun i ->
           Hb_clock.Waveform.make
             ~name:(Printf.sprintf "c%d" (i + 1))
             ~multiplier:1
             ~rise:(float_of_int i *. period /. float_of_int n)
             ~width:(0.8 *. period /. float_of_int n)))
  in
  let bld = Hb_netlist.Builder.create ~name:"ncone" ~library:lib in
  List.iter
    (fun w ->
       Hb_netlist.Builder.add_port bld ~name:w.Hb_clock.Waveform.name
         ~direction:Hb_netlist.Design.Port_in ~is_clock:true)
    system.Hb_clock.System.waveforms;
  let qs =
    List.init n (fun i ->
        let din = Printf.sprintf "d%d" i in
        Hb_netlist.Builder.add_port bld ~name:din
          ~direction:Hb_netlist.Design.Port_in ~is_clock:false;
        let q = Printf.sprintf "q%d" i in
        Hb_netlist.Builder.add_instance bld ~name:(Printf.sprintf "li%d" i)
          ~cell:"latch"
          ~connections:
            [ ("d", din); ("ck", Printf.sprintf "c%d" (i + 1)); ("q", q) ]
          ();
        q)
  in
  (* Reduce the n latched signals through a nand tree onto one cone net. *)
  let rec reduce level = function
    | [] -> failwith "empty"
    | [ single ] -> single
    | nets ->
      let rec pair i = function
        | a :: b :: rest ->
          let out = Printf.sprintf "t%d_%d" level i in
          Hb_netlist.Builder.add_instance bld
            ~name:(Printf.sprintf "n%d_%d" level i) ~cell:"nand2_x1"
            ~connections:[ ("a", a); ("b", b); ("y", out) ]
            ();
          out :: pair (i + 1) rest
        | [ last ] -> [ last ]
        | [] -> []
      in
      reduce (level + 1) (pair 0 nets)
  in
  let cone = reduce 0 qs in
  Hb_netlist.Builder.add_instance bld ~name:"lo1" ~cell:"latch"
    ~connections:[ ("d", cone); ("ck", "c2"); ("q", "o1") ] ();
  Hb_netlist.Builder.add_instance bld ~name:"lo2" ~cell:"latch"
    ~connections:
      [ ("d", cone); ("ck", Printf.sprintf "c%d" n); ("q", "o2") ]
    ();
  (Hb_netlist.Builder.freeze bld, system)

let ablate_passes () =
  section "A2" "minimum passes vs per-source-edge settling times";
  Printf.printf
    "generalised Figure 1: a cone fed by latches on n phases, captured on\n\
     two. Per-edge accounting needs n settling evaluations; the Section 7\n\
     pre-processing needs at most 2.\n\n";
  emit
    (List.map
       (fun n ->
          let design, system = n_phase_cone n in
          let passes, per_edge =
            busiest_cluster (Hb_sta.Context.make ~design ~system ())
          in
          [ count "phases" n; count "min passes" passes;
            count "per-edge" per_edge ])
       [ 2; 3; 4; 6; 8 ])

(* ------------------------------------------------------------------ *)
(* A3 — iterations vs clock speed                                     *)
(* ------------------------------------------------------------------ *)

let ablate_clock_speed () =
  section "A3" "Algorithm 1 iterations vs clock period";
  Printf.printf
    "\"the number of iterations required, and hence the run times, depend\n\
     upon the specified clock speeds\" (paper, Section 8).\n\n";
  let design, _ =
    Hb_workload.Pipelines.two_phase ~width:6 ~stages:5 ~gates_per_stage:50 ()
  in
  emit
    (List.map
       (fun period ->
          let system =
            Hb_clock.System.make ~overall_period:period
              [ Hb_clock.Waveform.make ~name:"phi1" ~multiplier:1 ~rise:0.0
                  ~width:(0.4 *. period);
                Hb_clock.Waveform.make ~name:"phi2" ~multiplier:1
                  ~rise:(0.5 *. period) ~width:(0.4 *. period) ]
          in
          let outcome =
            Hb_sta.Algorithm1.run (Hb_sta.Context.make ~design ~system ())
          in
          [ num ~fmt:"%.0f" "period ns" period;
            count "fwd cycles" outcome.Hb_sta.Algorithm1.forward_cycles;
            count "bwd cycles" outcome.Hb_sta.Algorithm1.backward_cycles;
            num ~fmt:"%.3f" "worst slack"
              outcome.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst;
            text "verdict" (verdict outcome) ])
       [ 16.0; 20.0; 24.0; 32.0; 48.0; 64.0; 100.0 ])

(* ------------------------------------------------------------------ *)
(* A4 — redesign convergence                                          *)
(* ------------------------------------------------------------------ *)

let redesign_convergence () =
  section "A4" "Algorithm 3 redesign convergence";
  let design, system =
    Hb_workload.Pipelines.edge_ff ~period:13.5 ~width:6 ~stages:4
      ~gates_per_stage:40 ()
  in
  let result = Hb_resynth.Loop.optimise ~design ~system ~library:lib () in
  let row iteration slack area upsized =
    [ text "iteration" iteration; num ~fmt:"%.3f" "worst slack" slack;
      num ~fmt:"%.1f" "area" area; text "upsized" upsized ]
  in
  emit
    (List.map
       (fun (s : Hb_resynth.Loop.step) ->
          row (string_of_int s.Hb_resynth.Loop.iteration)
            s.Hb_resynth.Loop.worst_slack s.Hb_resynth.Loop.area
            (string_of_int (List.length s.Hb_resynth.Loop.changed)))
       result.Hb_resynth.Loop.history
     @ [ row "final" result.Hb_resynth.Loop.final_worst_slack
           result.Hb_resynth.Loop.final_area "-" ]);
  Printf.printf "timing %s after %d iterations\n"
    (if result.Hb_resynth.Loop.met_timing then "met" else "NOT met")
    result.Hb_resynth.Loop.iterations

(* ------------------------------------------------------------------ *)
(* A5 — rise/fall separation vs scalar arrivals                       *)
(* ------------------------------------------------------------------ *)

let ablate_rise_fall () =
  section "A5" "rise/fall-separated arrivals vs scalar (pessimism)";
  Printf.printf
    "the paper adopts Bening et al. [7]: rising and falling settling times\n\
     are calculated separately. The scalar model takes the worst of the\n\
     two per arc and is safe but pessimistic through inverting chains.\n\n";
  let rf_config = { Hb_sta.Config.default with Hb_sta.Config.rise_fall = true } in
  emit
    (List.map
       (fun (name, make) ->
          let design, system = make () in
          let slacks config =
            let ctx = Hb_sta.Context.make ~design ~system ~config () in
            (Hb_sta.Slacks.compute ctx).Hb_sta.Slacks.element_input_slack
          in
          let rf = slacks rf_config in
          let gains =
            Array.to_list (slacks Hb_sta.Config.default)
            |> List.mapi (fun i s -> (s, rf.(i)))
            |> List.filter (fun (s, r) ->
                Hb_util.Time.is_finite s && Hb_util.Time.is_finite r)
            |> List.map (fun (s, r) -> r -. s)
          in
          let improved = List.filter (fun gain -> gain > 1e-9) gains in
          let n = List.length improved in
          [ text "design" name;
            count "endpoints" (List.length gains);
            count "improved" n;
            num ~fmt:"%.3f" "mean gain ns"
              (if n = 0 then 0.0
               else List.fold_left ( +. ) 0.0 improved /. float_of_int n);
            num ~fmt:"%.3f" "max gain ns" (List.fold_left Float.max 0.0 improved) ])
       [ chip "ALU";
         chip "SM1F";
         ("pipeline",
          fun () ->
            Hb_workload.Pipelines.two_phase ~width:6 ~stages:4
              ~gates_per_stage:60 ());
         chip "DES" ])

(* ------------------------------------------------------------------ *)
(* A6 — component-delay estimators                                    *)
(* ------------------------------------------------------------------ *)

let ablate_delay_models () =
  section "A6" "component-delay estimators (lumped vs RC/Elmore)";
  Printf.printf
    "the paper separates component delay estimation from system analysis\n\
     so estimators can be swapped; comparing the empirical lumped formula\n\
     against a switch-level-style Elmore model over synthetic interconnect.\n\n";
  emit
    (List.map
       (fun (name, make) ->
          let design, system = make () in
          let worst head delays =
            let ctx = Hb_sta.Context.make ~design ~system ?delays () in
            num ~fmt:"%.3f" head
              (Hb_sta.Algorithm1.run ctx).Hb_sta.Algorithm1.final
                .Hb_sta.Slacks.worst
          in
          let chain =
            { Hb_rc.Wire_model.default with
              Hb_rc.Wire_model.topology = Hb_rc.Wire_model.Chain }
          in
          [ text "design" name;
            worst "lumped worst" None;
            worst "rc star worst" (Some (Hb_sta.Delays.rc ()));
            worst "rc chain worst"
              (Some (Hb_sta.Delays.rc ~parameters:chain ())) ])
       [ chip "ALU"; chip "SM1F"; chip "DES" ])

(* ------------------------------------------------------------------ *)
(* A7 — false-path pessimism                                          *)
(* ------------------------------------------------------------------ *)

let ablate_false_paths () =
  section "A7" "false-path pessimism (block method vs static sensitisation)";
  Printf.printf
    "Section 7 concedes that the block method cannot discard false paths\n\
     and is safely pessimistic. Static sensitisation (an extension) proves\n\
     some critical paths false and recovers the pessimism, here measured\n\
     on reconvergent chains with a conflicting shared side net.\n\n";
  emit
    (List.map
       (fun (head, tail) ->
          let design, system, capture =
            Hb_workload.Falsey.conflict_chain ~head ~tail ()
          in
          let ctx = Hb_sta.Context.make ~design ~system () in
          let _ = Hb_sta.Algorithm1.run ctx in
          let inst =
            match Hb_netlist.Design.find_instance design capture with
            | Some i -> i
            | None -> failwith "capture register missing"
          in
          let endpoint =
            List.hd
              (Hashtbl.find
                 ctx.Hb_sta.Context.elements.Hb_sta.Elements.replicas_of_inst
                 inst)
          in
          let block, true_slack, skipped =
            match Hb_sta.False_paths.refine_endpoint ctx ~endpoint () with
            | Some r ->
              ( r.Hb_sta.False_paths.block_slack,
                Option.value ~default:nan r.Hb_sta.False_paths.true_slack,
                float_of_int r.Hb_sta.False_paths.false_skipped )
            | None -> (nan, nan, nan)
          in
          [ text "chain (head+tail)" (Printf.sprintf "%d+%d" head tail);
            num ~fmt:"%.3f" "block slack" block;
            num ~fmt:"%.3f" "true slack" true_slack;
            num ~fmt:"%.0f" "false skipped" skipped;
            num ~fmt:"%.3f" "pessimism recovered" (true_slack -. block) ])
       [ (2, 2); (4, 2); (8, 2); (16, 2) ])

(* ------------------------------------------------------------------ *)
(* A8 — incremental re-analysis in the redesign loop                  *)
(* ------------------------------------------------------------------ *)

let ablate_incremental () =
  section "A8" "ECO resize batch vs full rebuild";
  Printf.printf
    "the analysis/redesign loop commits each round as a Resize_gate batch:\n\
     the session re-extracts only the clusters of the resized gates and\n\
     keeps the element table and pass plans. Here every 50th\n\
     combinational gate is upsized.\n\n";
  emit
    (List.map
       (fun (name, make) ->
          let design, system = make () in
          let edits =
            List.filter_map
              (fun inst ->
                 let record = Hb_netlist.Design.instance design inst in
                 Option.map
                   (fun cell ->
                      Hb_sta.Edit.Resize_gate
                        { instance = record.Hb_netlist.Design.inst_name; cell })
                   (Hb_cell.Library.upsize lib record.Hb_netlist.Design.cell))
              (List.filteri
                 (fun i _ -> i mod 50 = 0)
                 (Hb_netlist.Design.comb_instances design))
          in
          (* [timed] runs its function three times: each run applies the
             batch to a session of its own, made beforehand. *)
          let sessions =
            List.init 3 (fun _ -> Hb_sta.Session.create ~design ~system ())
          in
          let pending = ref sessions in
          let eco, session =
            timed (fun () ->
                let session = List.hd !pending in
                pending := List.tl !pending;
                let _ : Hb_sta.Session.apply_result =
                  Hb_sta.Session.apply session edits
                in
                session)
          in
          let resized = (Hb_sta.Session.context session).Hb_sta.Context.design in
          let full, _ =
            timed (fun () -> Hb_sta.Context.make ~design:resized ~system ())
          in
          let worst (outcome : Hb_sta.Algorithm1.outcome) =
            outcome.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst
          in
          let via_session =
            worst (Hb_sta.Session.analyse session).Hb_sta.Session.outcome
          in
          let fresh =
            worst
              (Hb_sta.Engine.analyse ~design:resized ~system ())
                .Hb_sta.Engine.outcome
          in
          gate
            (Int64.bits_of_float via_session = Int64.bits_of_float fresh)
            "%s: session worst slack %h, fresh analysis %h" name via_session
            fresh;
          List.iter (fun s -> Hb_sta.Session.close s) sessions;
          [ text "design" name;
            count "resized" (List.length edits);
            num "full rebuild s" full;
            num "eco apply s" eco;
            ratio "speedup" (speedup full eco) ])
       [ chip "ALU"; chip "DES" ])

(* ------------------------------------------------------------------ *)
(* S1 — scaling beyond Table 1                                        *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section "S1" "scaling — analysis cost vs design size";
  Printf.printf
    "the paper's claim is that the method is \"indeed, very fast\";\n\
     two-phase latch pipelines grown past Table 1 sizes show near-linear\n\
     pre-processing and analysis cost.\n\n";
  emit
    (List.map
       (fun (width, stages, gates) ->
          let design, system =
            Hb_workload.Pipelines.two_phase ~width ~stages
              ~gates_per_stage:gates ()
          in
          let stats = Hb_netlist.Stats.compute design in
          let pre, _ =
            timed (fun () -> Hb_sta.Context.make ~design ~system ())
          in
          let analysis, _ =
            analysis_time (Hb_sta.Context.make ~design ~system ())
          in
          [ count "cells" stats.Hb_netlist.Stats.cells;
            count "nets" stats.Hb_netlist.Stats.nets;
            num "pre-process s" pre;
            num "analysis s" analysis ])
       [ (8, 4, 250); (16, 5, 800); (16, 8, 1500); (32, 8, 2500) ])

(* ------------------------------------------------------------------ *)
(* P1 — incremental + parallel slack engine                           *)
(* ------------------------------------------------------------------ *)

let slack_engine ?(designs = chips) () =
  section "P1" "slack engine — incremental/parallel vs seed sequential";
  Printf.printf
    "full Algorithm 1 run (offsets reset each repetition) under three\n\
     configurations: the seed's from-scratch sequential evaluation, the\n\
     dirty-cluster incremental engine on one domain, and incremental\n\
     evaluation fanned across the domain pool. All three must agree\n\
     bit-for-bit; wall seconds, median of 3.\n\n";
  let jobs = Stdlib.max 2 (Hb_util.Pool.recommended_jobs ()) in
  let rows =
    List.map
      (fun (name, make) ->
         let design, system = make () in
         let stats = Hb_netlist.Stats.compute design in
         let run config =
           analysis_time (Hb_sta.Context.make ~design ~system ~config ())
         in
         let seq_s, seq = run Hb_sta.Config.sequential in
         let inc_s, inc =
           run { Hb_sta.Config.default with Hb_sta.Config.parallel_jobs = 1 }
         in
         let par_s, par =
           run { Hb_sta.Config.default with Hb_sta.Config.parallel_jobs = jobs }
         in
         let same (a : Hb_sta.Algorithm1.outcome) (b : Hb_sta.Algorithm1.outcome) =
           a.Hb_sta.Algorithm1.status = b.Hb_sta.Algorithm1.status
           && a.Hb_sta.Algorithm1.forward_cycles = b.Hb_sta.Algorithm1.forward_cycles
           && a.Hb_sta.Algorithm1.backward_cycles = b.Hb_sta.Algorithm1.backward_cycles
           && Hb_util.Time.equal a.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst
                b.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst
         in
         gate (same seq inc && same seq par) "%s: engine outcomes disagree" name;
         [ text ~key:"design" "design" name;
           count ~key:"cells" "cells" stats.Hb_netlist.Stats.cells;
           count ~key:"nets" "nets" stats.Hb_netlist.Stats.nets;
           num ~key:"sequential_s" "sequential s" seq_s;
           num ~key:"incremental_s" "incremental s" inc_s;
           num ~key:"parallel_s" (Printf.sprintf "parallel s (j=%d)" jobs) par_s;
           ratio ~key:"speedup" "speedup"
             (speedup seq_s (Stdlib.min inc_s par_s)) ])
      designs
  in
  emit ~bench:"slack_engine" ~fields:[ ("jobs", Json.Number (float_of_int jobs)) ]
    ~list:"designs" rows

(* ------------------------------------------------------------------ *)
(* P2 — k-worst path enumeration                                      *)
(* ------------------------------------------------------------------ *)

(* Random register/cloud soups at the paper's DES and ALU cell counts:
   soup clouds are far more reconvergent than the structured chips, which
   is what a pruning enumerator has to cope with. Too many paths for an
   exhaustive walk: into one of DES-soup's worst endpoints it passes 5M
   paths. *)
let path_engine_designs =
  [ ( "DES-soup",
      fun () ->
        Hb_workload.Soup.random ~seed:7L ~phases:3 ~registers:4 ~gates:3500
          ~inputs:4 ~outputs:8 () );
    ( "ALU-soup",
      fun () ->
        Hb_workload.Soup.random ~seed:7L ~phases:3 ~registers:4 ~gates:800
          ~inputs:4 ~outputs:8 () );
  ]

let path_engine ?(designs = path_engine_designs) ?(ks = [ 10; 100; 1000 ]) () =
  section "P2" "k-worst paths — predecessor pool + bound pruning";
  let largest = List.fold_left Stdlib.max 0 ks in
  Printf.printf
    "k-worst path enumeration (Paths.enumerate) into the 16 worst\n\
     endpoints: shared-prefix predecessor pool with arena scratch and\n\
     admissible-bound pruning. At each k, every endpoint's rank slacks\n\
     must equal the first k of the k=%d run bit for bit; wall seconds\n\
     median of 3, allocation bytes of one sweep on every heap (minor +\n\
     major - promoted words).\n\n"
    largest;
  let rows =
    List.concat_map
      (fun (name, make) ->
         let design, system = make () in
         let ctx =
           Hb_sta.Context.make ~design ~system
             ~config:Hb_sta.Config.sequential ()
         in
         let outcome = Hb_sta.Algorithm1.run ctx in
         let endpoints =
           List.map fst
             (Hb_sta.Paths.worst_endpoints outcome.Hb_sta.Algorithm1.final
                ~limit:16)
         in
         let rank_slacks k endpoint =
           List.map
             (fun (p : Hb_sta.Paths.path) -> p.Hb_sta.Paths.slack)
             (Hb_sta.Paths.enumerate ctx ~endpoint ~limit:k)
         in
         let longest = List.map (rank_slacks largest) endpoints in
         List.map
           (fun k ->
              List.iter2
                (fun endpoint longest ->
                   gate
                     (List.equal Float.equal
                        (List.filteri (fun i _ -> i < k) longest)
                        (rank_slacks k endpoint))
                     "%s k=%d endpoint %d: the rank slacks are not the first \
                      %d of the k=%d run" name k endpoint k largest)
                endpoints longest;
              let sweep () =
                List.iter
                  (fun endpoint ->
                     ignore (Hb_sta.Paths.enumerate ctx ~endpoint ~limit:k))
                  endpoints
              in
              (* Warm the per-domain scratch before measuring. *)
              sweep ();
              let new_s, () = timed sweep in
              let new_alloc = allocated_bytes_of sweep in
              [ text ~key:"design" "design" name;
                count ~key:"k" "k" k;
                num ~key:"new_s" "s" new_s;
                mb ~key:"new_alloc_bytes" "alloc MB" new_alloc ])
           ks)
      designs
  in
  emit ~bench:"paths" ~fields:[ ("endpoints", Json.Number 16.0) ] ~list:"runs"
    rows

(* ------------------------------------------------------------------ *)
(* P3 — telemetry: disabled overhead and enabled counters             *)
(* ------------------------------------------------------------------ *)

let telemetry_bench () =
  section "P3" "telemetry — disabled overhead and enabled counters";
  Printf.printf
    "full DES analysis with the telemetry registry disabled (the default)\n\
     and enabled. Every instrumentation site is one Atomic.get plus a\n\
     branch when disabled, so the off column must stay at the P1/P2-era\n\
     cost; the on column prices the per-domain counter shards and phase\n\
     spans. Wall seconds, median of 5.\n\n";
  let design, system = Hb_workload.Chips.des () in
  let analyse config () =
    ignore (Hb_sta.Engine.analyse ~design ~system ~config ())
  in
  let on_config = { Hb_sta.Config.default with Hb_sta.Config.telemetry = true } in
  Telemetry.set_enabled false;
  Telemetry.reset ();
  let off_s, () = timed ~repeat:5 (analyse Hb_sta.Config.default) in
  (* The logging-off budget gate: a disabled log site and a disabled
     histogram observation must cost what a disabled counter costs — one
     atomic load and a branch, no allocation, no formatting. Measured
     here while the registry is off. *)
  let ns_per op =
    let iters = 5_000_000 in
    let seconds, () =
      timed ~repeat:1 (fun () -> for _ = 1 to iters do op () done)
    in
    seconds *. 1e9 /. float_of_int iters
  in
  let c_probe = Telemetry.counter "bench.p3_probe" in
  let h_probe = Telemetry.histogram "bench.p3_probe_seconds" in
  let counter_ns = ns_per (fun () -> Telemetry.incr c_probe) in
  let observe_ns = ns_per (fun () -> Telemetry.observe h_probe 1.0) in
  let log_ns =
    ns_per (fun () ->
        if Hb_util.Log.on Hb_util.Log.Debug then
          Hb_util.Log.debug "bench.p3_probe" [])
  in
  Printf.printf
    "disabled-site cost: counter %.1f ns, histogram %.1f ns, log guard \
     %.1f ns per call\n\n"
    counter_ns observe_ns log_ns;
  let budget = Stdlib.max 50.0 (10.0 *. counter_ns) in
  List.iter
    (fun (what, ns) ->
       gate (ns <= budget)
         "disabled %s site costs %.1f ns/call — over the %.1f ns \
          telemetry-off budget" what ns budget)
    [ ("histogram", observe_ns); ("log", log_ns) ];
  Telemetry.set_enabled true;
  Telemetry.reset ();
  let on_s, () = timed ~repeat:5 (analyse on_config) in
  (* A k-worst sweep while the registry is live, so the Paths counters
     appear in the same snapshot. *)
  let ctx = Hb_sta.Context.make ~design ~system ~config:on_config () in
  let outcome = Hb_sta.Algorithm1.run ctx in
  List.iter
    (fun (endpoint, _) -> ignore (Hb_sta.Paths.enumerate ctx ~endpoint ~limit:100))
    (Hb_sta.Paths.worst_endpoints outcome.Hb_sta.Algorithm1.final ~limit:8);
  (* A deliberately over-constrained pipeline: Algorithm 1 must transfer
     slack between clusters, so the transfer counters are exercised too
     (DES meets timing without relaxation). *)
  let t_design, t_system =
    Hb_workload.Pipelines.edge_ff ~period:3.0 ~width:4 ~stages:3
      ~gates_per_stage:20 ()
  in
  ignore (Hb_sta.Engine.analyse ~design:t_design ~system:t_system
            ~config:on_config ());
  (* Drive the serve front end so the request histograms and the
     observability log sites fire in the same snapshot, and so a forced
     error reply produces a flight-recorder dump. *)
  let hbn = Filename.temp_file "hb_p3" ".hbn" in
  Hb_netlist.Hbn_format.write_file design hbn;
  let hbc = Filename.temp_file "hb_p3" ".hbc" in
  Hb_util.Text.write_atomic hbc (Hb_clock.System.to_string system);
  Hb_util.Log.reset ();
  Hb_util.Log.set_level Hb_util.Log.Debug;
  Hb_util.Log.set_sink (fun _ -> ());
  let flight = ref "" in
  let daemon = Hb_sta.Serve.create ~dump:(fun doc -> flight := doc) () in
  List.iteri
    (fun i (request_id, meth, params) ->
       ignore
         (serve_request ?request_id (Hb_sta.Serve.handle_line daemon)
            ~id:(i + 1) meth params))
    [ (None, "load",
       [ ("netlist", Json.String hbn); ("clocks", Json.String hbc) ]);
      (Some "bench-p3", "analyse", []);
      (None, "paths", [ ("limit", Json.Number 10.0) ]);
      (None, "edit",
       scale_edit
         (Hb_netlist.Design.instance design 0).Hb_netlist.Design.inst_name
         1.05);
      (* The error reply that must produce a flight-recorder dump. *)
      (None, "edit", scale_edit "no-such-instance" 1.1);
      (None, "shutdown", []) ];
  Sys.remove hbn;
  Sys.remove hbc;
  gate (!flight <> "") "error reply did not produce a flight-recorder dump";
  gate (!flight = "" || Result.is_ok (Json.parse_result !flight))
    "flight-recorder dump is not valid JSON";
  let log_sites = Hb_util.Log.emitted_sites () in
  Hb_util.Log.set_level Hb_util.Log.Off;
  Hb_util.Log.set_sink_default ();
  let snap = Telemetry.snapshot () in
  let counters = List.sort compare snap.Telemetry.counters in
  let histograms = snap.Telemetry.histograms in
  let ints pairs = Json.Obj (List.map (fun (k, n) -> (k, Json.Number (float_of_int n))) pairs) in
  emit ~bench:"telemetry"
    ~fields:
      [ ("disabled_counter_ns", number counter_ns);
        ("disabled_histogram_ns", number observe_ns);
        ("disabled_log_ns", number log_ns);
        ("counters", ints counters);
        ( "histograms",
          Json.Obj
            (List.map
               (fun (h : Telemetry.histogram_snapshot) ->
                  ( h.Telemetry.h_name,
                    Json.Obj
                      [ ("count", Json.Number (float_of_int h.Telemetry.total));
                        ("sum", number h.Telemetry.sum) ] ))
               histograms) );
        ("log_sites", ints log_sites) ]
    [ [ text ~key:"design" "design" "DES";
        num ~key:"off_s" "telemetry off s" off_s;
        num ~key:"on_s" "telemetry on s" on_s;
        num ~key:"overhead_pct" ~fmt:"%+.1f%%" "overhead"
          ((on_s -. off_s) /. Stdlib.max 1e-9 off_s *. 100.0) ] ];
  Printf.printf "\ncounters (5 analysis repetitions + path sweep):\n";
  emit
    (List.map (fun (name, value) -> [ text "counter" name; count "value" value ])
       counters);
  Printf.printf "\nphase spans:\n";
  emit
    (List.map
       (fun (name, n, wall, cpu) ->
          [ text "span" name; count "count" n; num "wall s" wall;
            num "cpu s" cpu ])
       (Telemetry.aggregate_spans snap));
  Printf.printf "\nhistograms:\n";
  emit
    (List.map
       (fun (h : Telemetry.histogram_snapshot) ->
          [ text "histogram" h.Telemetry.h_name;
            count "count" h.Telemetry.total;
            num "sum" h.Telemetry.sum ])
       histograms);
  (* The instrumentation has to actually count: a silently dead counter,
     histogram or log site is a regression even when the timings look
     fine. *)
  List.iter
    (fun (what, never, totals, names) ->
       List.iter
         (fun name ->
            gate (Option.value ~default:0 (List.assoc_opt name totals) > 0)
              "%s %s never %s" what name never)
         names)
    [ ("counter", "incremented", counters,
       [ "algorithm1.relaxation_iterations";
         "algorithm1.complete_forward_transfers";
         "slacks.block_evaluations";
         "paths.states_expanded";
         "paths.heap_pushes";
         "serve.requests";
         "serve.errors";
         "session.analyses" ]);
      ("histogram", "observed",
       List.map
         (fun (h : Telemetry.histogram_snapshot) ->
            (h.Telemetry.h_name, h.Telemetry.total))
         histograms,
       [ "serve.request_seconds";
         "serve.clusters_evaluated";
         "serve.paths_enumerated" ]);
      ("log site", "emitted", log_sites,
       [ "serve.request"; "session.create"; "session.analyse"; "session.apply" ]) ];
  (* Optional Chrome trace of the instrumented runs: --trace FILE. *)
  (match argv_value "--trace" with
   | Some path ->
     Hb_util.Text.write_atomic path (Telemetry.trace_json snap);
     Printf.printf "wrote %s\n" path
   | None -> ());
  (* Leave the registry as the later sections expect it: off and empty. *)
  Telemetry.set_enabled false;
  Telemetry.reset ()

(* ------------------------------------------------------------------ *)
(* P4 — session engine: what-if query throughput                      *)
(* ------------------------------------------------------------------ *)

let session_bench () =
  section "P4" "session engine — N-query what-if throughput";
  let queries = 20 in
  Printf.printf
    "%d what-if queries on DES, each scaling one instance's delay and\n\
     re-reading the worst slack. The one-shot column rebuilds the whole\n\
     engine per query (Engine.analyse with an annotation); the session\n\
     column mutates a persistent Session, re-evaluating only the clusters\n\
     the edit touched. Slacks must agree bit-for-bit per query; wall\n\
     seconds for the full sweep, median of 3.\n\n"
    queries;
  let design, system = Hb_workload.Chips.des () in
  (* Edit target: a combinational instance on the worst path, so the
     edit genuinely moves timing. *)
  let instance =
    let probe = Hb_sta.Session.create ~design ~system () in
    let inst = List.hd (worst_path_instances probe ~limit:1) in
    Hb_sta.Session.close probe;
    inst.Hb_netlist.Design.inst_name
  in
  let factor i = 0.85 +. (0.015 *. float_of_int i) in
  let worst (report : Hb_sta.Engine.report) =
    report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst
  in
  (* One-shot: full preprocess per query, the seed's only option. *)
  let one_shot_s, one_shot =
    timed (fun () ->
        Array.init queries (fun i ->
            let annotation =
              Hb_sta.Annotation.of_entries
                [ (instance, Hb_sta.Annotation.Scaled (factor i)) ]
            in
            let delays =
              Hb_sta.Annotation.apply annotation ~base:Hb_sta.Delays.lumped
            in
            worst
              (Hb_sta.Engine.analyse ~design ~system ~delays
                 ~generate_constraints:false ~check_hold:false ())))
  in
  (* Session: one preprocess, then mutate-and-query. *)
  let session = Hb_sta.Session.create ~design ~system () in
  let session_s, session_slacks =
    timed (fun () ->
        Array.init queries (fun i ->
            let _ : Hb_sta.Session.apply_result =
              Hb_sta.Session.apply session
                [ Hb_sta.Edit.Scale_delay { instance; factor = factor i } ]
            in
            worst
              (Hb_sta.Session.analyse ~generate_constraints:false
                 ~check_hold:false session)))
  in
  Hb_sta.Session.close session;
  Array.iteri
    (fun i slack ->
       gate (Hb_util.Time.equal one_shot.(i) slack)
         "query %d: session slack %g != one-shot slack %g" i slack
         one_shot.(i))
    session_slacks;
  let gain = speedup one_shot_s session_s in
  emit ~bench:"session"
    [ [ text ~key:"design" "design" "DES";
        count ~key:"queries" "queries" queries;
        text ~key:"instance" "edited instance" instance;
        num ~key:"one_shot_s" "one-shot s" one_shot_s;
        num ~key:"session_s" "session s" session_s;
        ratio ~key:"speedup" "speedup" gain ] ];
  (* The acceptance bar: a persistent session must beat rebuilding the
     engine per query by a wide margin, or the subsystem is pointless. *)
  gate (gain >= 3.0) "session speedup %.2fx is below the 3x bar" gain

(* ------------------------------------------------------------------ *)
(* S2 — million-cell scale: macro vs flat relaxation                  *)
(* ------------------------------------------------------------------ *)

(* Linux resets a process's peak resident set (VmHWM) to its current
   one when 5 is written to its clear_refs. The runtime keeps the heap
   it has grown, so a preset's peak still counts what earlier sections
   left resident; that is why S2 runs before P5's 100k sessions. A full
   collection first lets the preset reuse what earlier sections freed
   before it grows the heap. Hosts without procfs keep the process-wide
   peak, or report none. *)
let reset_peak_rss () =
  Gc.compact ();
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

(* The tentpole measurement: on the tiled-Feistel scale designs, run
   Algorithm 1 with flat per-cluster re-evaluation and with hierarchical
   timing macros, gate that the results are bit-identical, and require
   the macro path to win by >= 3x at the 100k preset. The 1M preset runs
   macro-only (a flat 1M sweep per relaxation iteration is exactly the
   cost this subsystem exists to avoid) and records wall time plus the
   preset's peak RSS. [smoke] keeps just the 10k preset — parity and
   plumbing, not the performance gate. *)
let scale_bench ?(smoke = false) () =
  section "S2" "scale — hierarchical timing macros vs flat relaxation";
  let presets =
    ("scale10k", (fun () -> Hb_workload.Scale.scale10k ()), true, 3)
    :: (if smoke then []
        else
          [ ("scale100k", (fun () -> Hb_workload.Scale.scale100k ()), true, 3);
            ("scale1m", (fun () -> Hb_workload.Scale.scale1m ()), false, 1) ])
  in
  (* Cache and macro store are dropped each repeat, so every measured
     run pays extraction (macro) or a cold sweep (flat) — the honest
     one-shot comparison. *)
  let run_mode ~macro ~repeat ~design ~system =
    let config = { Hb_sta.Config.default with Hb_sta.Config.macro } in
    let ctx = Hb_sta.Context.make ~design ~system ~config () in
    let seconds, outcome =
      timed ~repeat (fun () ->
          Hb_sta.Context.invalidate_cache ctx;
          Hb_sta.Elements.reset_offsets ctx.Hb_sta.Context.elements;
          Hb_sta.Algorithm1.run ctx)
    in
    (seconds, outcome, ctx)
  in
  let rows =
    List.map
      (fun (name, make, with_flat, repeat) ->
         reset_peak_rss ();
         let design, system = make () in
         let stats = Hb_netlist.Stats.compute design in
         let macro_s, outcome, ctx = run_mode ~macro:true ~repeat ~design ~system in
         let final (o : Hb_sta.Algorithm1.outcome) = o.Hb_sta.Algorithm1.final in
         (* Parity is part of the measurement, not a separate test: the
            macro run must reproduce the flat slacks bit-for-bit. *)
         let flat_s, parity =
           if not with_flat then (nan, Json.Null)
           else begin
             let flat_s, flat, _ = run_mode ~macro:false ~repeat ~design ~system in
             let same =
               same_slacks (name ^ " macro vs flat") (final flat) (final outcome)
             in
             (flat_s, Json.String (if same then "bit_identical" else "diverged"))
           end
         in
         let gain = speedup flat_s macro_s in
         (* The acceptance bar: at 100k cells, macro-level relaxation must
            beat flat by >= 3x (cold runs, extraction included). *)
         if name = "scale100k" then
           gate (gain >= 3.0) "macro speedup %.2fx at 100k is below the 3x bar"
             gain;
         let fwd = outcome.Hb_sta.Algorithm1.forward_cycles in
         let bwd = outcome.Hb_sta.Algorithm1.backward_cycles in
         let peak =
           match Hb_util.Rss.peak_bytes () with
           | Some bytes -> float_of_int bytes
           | None -> nan
         in
         [ text ~key:"design" "design" name;
           count ~key:"cells" "cells" stats.Hb_netlist.Stats.cells;
           count ~key:"clusters" "clusters"
             (Array.length ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters);
           text "cycles" (Printf.sprintf "%d+%d" fwd bwd);
           field "forward_cycles" (Json.Number (float_of_int fwd));
           field "backward_cycles" (Json.Number (float_of_int bwd));
           field "worst_slack" (number (final outcome).Hb_sta.Slacks.worst);
           num ~key:"flat_s" "flat s" flat_s;
           num ~key:"macro_s" "macro s" macro_s;
           ratio ~key:"speedup" "speedup" gain;
           field "parity" parity;
           mb ~key:"peak_rss_bytes" "peak rss MB" peak ])
      presets
  in
  emit ~bench:"scale" ~list:"presets" rows

(* ------------------------------------------------------------------ *)
(* P5 — snapshot: warm start vs cold preprocess                       *)
(* ------------------------------------------------------------------ *)

(* The warm-start measurement: save an analysed session (context plus
   analysis caches) to a snapshot file, then compare time-to-first-report
   from the snapshot ([Session.of_snapshot] + [analyse], answered from
   the marshalled caches) against a cold start ([Session.create] +
   [analyse], full preprocess and relaxation). The restored analysis
   must be bit-identical to the cold one, and at the 100k preset the
   warm start must win by >= 10x — otherwise shipping a marshalled
   context around is pointless. An ECO micro-measurement rides along: a
   small Resize_gate batch on the restored session, timing the targeted
   cluster rebuild a warm what-if loop pays per edit. [smoke] keeps the
   10k preset — parity and plumbing, not the performance gate. *)
let snapshot_bench ?(smoke = false) () =
  section "P5" "snapshot — warm start vs cold start";
  let name, make =
    if smoke then ("scale10k", fun () -> Hb_workload.Scale.scale10k ())
    else ("scale100k", fun () -> Hb_workload.Scale.scale100k ())
  in
  Printf.printf
    "cold: Session.create + analyse on %s (preprocess, relaxation,\n\
     hold check). warm: Session.of_snapshot + analyse from a snapshot\n\
     saved after one analyse — the report comes from the marshalled\n\
     caches. Bit-identical reports required; wall seconds to first\n\
     report, median of 3 (session close included in both columns).\n\n"
    name;
  let design, system = make () in
  let snap_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hb_bench_%s_%d.hbs" name (Unix.getpid ()))
  in
  let analyse s =
    Hb_sta.Session.analyse ~generate_constraints:false ~check_hold:true s
  in
  let first_report open_session () =
    let s = open_session () in
    let report = analyse s in
    Hb_sta.Session.close s;
    report
  in
  (* The donor session pays the cold start once and saves the snapshot. *)
  let donor = Hb_sta.Session.create ~design ~system () in
  ignore (analyse donor : Hb_sta.Session.report);
  Hb_sta.Session.save_snapshot donor ~path:snap_path;
  Hb_sta.Session.close donor;
  let snap_bytes = (Unix.stat snap_path).Unix.st_size in
  let cold_s, cold_report =
    timed (first_report (fun () -> Hb_sta.Session.create ~design ~system ()))
  in
  let warm_s, _ =
    timed (first_report (fun () -> Hb_sta.Session.of_snapshot ~path:snap_path))
  in
  (* Parity is part of the measurement: the restored session's analysis
     must be bit-identical to the cold one, every element. *)
  let restored = Hb_sta.Session.of_snapshot ~path:snap_path in
  let final (r : Hb_sta.Engine.report) =
    r.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final
  in
  let parity =
    same_slacks "restored vs cold" (final cold_report) (final (analyse restored))
  in
  (* ECO micro-measurement: upsize a few worst-path gates on the warm
     session and re-analyse — the per-edit cost of a restored what-if
     loop (targeted cluster rebuild, not a fresh preprocess). *)
  let eco_edits =
    worst_path_instances restored ~limit:8
    |> List.filter_map (fun (inst : Hb_netlist.Design.instance) ->
        Hb_cell.Library.upsize lib inst.Hb_netlist.Design.cell
        |> Option.map (fun cell ->
            Hb_sta.Edit.Resize_gate
              { instance = inst.Hb_netlist.Design.inst_name; cell }))
    |> List.filteri (fun i _ -> i < 4)
  in
  let eco_s, eco_rebuilt =
    match eco_edits with
    | [] -> (nan, 0)
    | edits ->
      let seconds, result =
        timed ~repeat:1 (fun () ->
            let result = Hb_sta.Session.apply restored edits in
            ignore (analyse restored : Hb_sta.Session.report);
            result)
      in
      (seconds, result.Hb_sta.Session.clusters_rebuilt)
  in
  Hb_sta.Session.close restored;
  Sys.remove snap_path;
  let gain = speedup cold_s warm_s in
  emit ~bench:"snapshot"
    [ [ text ~key:"design" "design" name;
        mb ~key:"snapshot_bytes" "snapshot MB" (float_of_int snap_bytes);
        num ~key:"cold_s" "cold s" cold_s;
        num ~key:"warm_s" "warm s" warm_s;
        ratio ~key:"speedup" "speedup" gain;
        field "parity"
          (Json.String (if parity then "bit_identical" else "diverged"));
        count ~key:"eco_edits" "eco edits" (List.length eco_edits);
        field "eco_clusters_rebuilt" (Json.Number (float_of_int eco_rebuilt));
        num ~key:"eco_s" "eco s" eco_s ] ];
  (* The acceptance bar: at 100k cells a warm start must beat the cold
     start to first report by >= 10x. The smoke run checks parity only —
     a 10k cold start is too quick for a stable ratio. *)
  gate (smoke || gain >= 10.0)
    "warm-start speedup %.2fx is below the 10x bar" gain

(* ------------------------------------------------------------------ *)
(* S3 — concurrent serve: multi-client throughput                     *)
(* ------------------------------------------------------------------ *)

(* The concurrent-daemon measurement: N clients against one in-process
   scheduler, all bound to the SAME registry session (scale10k loaded
   once, shared N-1 times).

   Phase A (gated): think-time model. An interactive client spends
   [think] seconds between requests (editor idle, script pacing, a
   human); its throughput is bounded by 1/(think + latency) no matter
   how fast the server is. One worker domain serves 8 such clients
   almost entirely inside their think time — a cached read is
   microseconds — so aggregate throughput approaches 8x a single
   client. The bar is >= 3x; this measures request *interleaving* (the
   point of the scheduler), not CPU parallelism, so it holds on a
   one-core host.

   Phase B (reported, not gated): the same clients as zero-think
   what-if streams hammering the shared session with scale_delay +
   analyse; p50/p99 request latency interpolated from the
   serve.request_seconds histogram delta.

   The read stream is [constraints]: once the session's constraint
   cache is warm it is answered under the read lock with a four-field
   reply — microseconds of service time, so one worker hides 8 clients
   inside their think time. (A cached [analyse] would also work
   semantically, but its reply serializes the whole report —
   milliseconds of JSON per request — and the worker saturates.) *)
let serve_load_bench ?(smoke = false) () =
  section "S3" "serve — concurrent multi-client throughput";
  let clients = 8 in
  let think = 0.002 in
  let requests = if smoke then 40 else 150 in
  let whatif_iters = if smoke then 3 else 8 in
  Printf.printf
    "phase A: %d clients x %d cached constraints reads each, %.0fms think\n\
     time between requests, one shared scale10k session behind the\n\
     scheduler; aggregate throughput must be >= 3x a single client\n\
     (request interleaving, not CPU parallelism). phase B: %d zero-think\n\
     what-if streams (scale_delay + analyse), p50/p99 interpolated from\n\
     the serve.request_seconds histogram.\n\n"
    clients requests (think *. 1000.0) clients;
  (* Phase B edit targets: combinational instances off the worst paths
     of a locally built scale10k (the daemon keys its session by the
     generator name; the local build only supplies instance names). *)
  let targets =
    let design, system = Hb_workload.Scale.scale10k () in
    let probe = Hb_sta.Session.create ~design ~system () in
    let names =
      List.map
        (fun (i : Hb_netlist.Design.instance) -> i.Hb_netlist.Design.inst_name)
        (worst_path_instances probe ~limit:64)
    in
    Hb_sta.Session.close probe;
    Array.init clients (fun i -> List.nth names (i mod List.length names))
  in
  with_scale10k_daemon ~workers:1 ~queue:256 ~clients
    (fun _daemon call handles ->
       let stream client () =
         for _ = 1 to requests do
           Thread.delay think;
           call client "constraints" []
         done
       in
       (* Phase A, one client on the main thread, then all at once. *)
       let single_s, () = timed ~repeat:1 (stream handles.(0)) in
       let concurrent_s, failed_a = run_streams (Array.map stream handles) in
       gate (failed_a = 0) "phase A: %d client streams failed" failed_a;
       let before = histogram "serve.request_seconds" in
       let whatif i client () =
         for k = 1 to whatif_iters do
           call client "edit"
             (scale_edit targets.(i)
                (0.9 +. (0.02 *. float_of_int ((i + k) mod 10))));
           call client "analyse"
             [ ("constraints", Json.Bool false); ("hold", Json.Bool false) ]
         done
       in
       let whatif_s, failed_b = run_streams (Array.mapi whatif handles) in
       gate (failed_b = 0) "phase B: %d client streams failed" failed_b;
       let p50 = quantile_ms ~since:before "serve.request_seconds" 0.5 in
       let p99 = quantile_ms ~since:before "serve.request_seconds" 0.99 in
       let shared =
         Telemetry.read_counter (Telemetry.counter "serve.sessions_shared")
       in
       let single_rps = float_of_int requests /. Stdlib.max 1e-9 single_s in
       let concurrent_rps =
         float_of_int (clients * requests) /. Stdlib.max 1e-9 concurrent_s
       in
       let whatif_requests = clients * whatif_iters * 2 in
       let gain = speedup concurrent_rps single_rps in
       let rps ?key x = num ?key ~fmt:"%.0f" "req/s" x in
       emit ~bench:"serve_load"
         ~fields:
           [ ("design", Json.String "scale10k");
             ("think_s", Json.Number think);
             ("p50_ms", number p50);
             ("p99_ms", number p99);
             ("sessions_shared", Json.Number (float_of_int shared)) ]
         [ [ text "phase" "A single"; count "clients" 1;
             count ~key:"requests_per_client" "requests" requests;
             num "wall s" single_s; rps ~key:"single_rps" single_rps;
             ratio "vs single" 1.0 ];
           [ text "phase" "A concurrent"; count ~key:"clients" "clients" clients;
             count "requests" (clients * requests);
             num "wall s" concurrent_s; rps ~key:"concurrent_rps" concurrent_rps;
             ratio ~key:"speedup" "vs single" gain ];
           [ text "phase" "B what-if"; count "clients" clients;
             count ~key:"whatif_requests" "requests" whatif_requests;
             num "wall s" whatif_s;
             rps ~key:"whatif_rps"
               (float_of_int whatif_requests /. Stdlib.max 1e-9 whatif_s);
             num "vs single" nan ] ];
       Printf.printf
         "shared-session loads: %d   request latency p50 %.3f ms, p99 %.3f ms\n"
         shared p50 p99;
       (* The acceptance bars: N clients must beat one by >= 3x, and the
          registry must actually have shared the session. *)
       gate (gain >= 3.0)
         "concurrent throughput %.2fx single-client is below the 3x bar" gain;
       gate (shared >= clients - 1)
         "expected %d shared-session loads, telemetry saw %d" (clients - 1)
         shared)

(* ------------------------------------------------------------------ *)
(* O1: telemetry plane — windowed p99 + SLO burn under heavy load     *)
(* ------------------------------------------------------------------ *)

let monitor_bench ?(smoke = false) () =
  section "O1" "monitor — windowed p99 under 128 zero-think streams";
  let streams = 128 in
  let requests = if smoke then 15 else 50 in
  let p99_budget_ms = 250.0 in
  let error_budget = 0.01 in
  Printf.printf
    "%d zero-think streams of cached constraints reads against one\n\
     shared scale10k session; client-observed latency (queue wait +\n\
     service) feeds a rolling window, exactly what `serve --monitor`\n\
     exports. Gate: windowed p99 <= %.0f ms and error rate <= %.2f\n\
     (burn <= 1.0 on both axes).\n\n"
    streams p99_budget_ms error_budget;
  let workers = Stdlib.min 4 (Hb_util.Pool.recommended_jobs ()) in
  (* The daemon warms before the SLO tracker attaches: the first load
     pays scale10k preprocessing (hundreds of ms) and must not land in
     the window the gate reads — operators attach budgets to steady
     state, not boot. *)
  with_scale10k_daemon ~workers ~queue:(2 * streams) ~clients:streams
    (fun daemon call handles ->
       let slo =
         Hb_sta.Serve.Slo.create ~p99_budget_ms ~error_budget ~slots:16
           ~slot_seconds:0.25 ()
       in
       Hb_sta.Serve.attach_slo daemon slo;
       let wall_s, failed =
         run_streams
           (Array.map
              (fun client () ->
                 for _ = 1 to requests do call client "constraints" [] done)
              handles)
       in
       gate (failed = 0) "%d load streams failed" failed;
       let status = Hb_sta.Serve.Slo.tick slo in
       (* Queue wait p99 from the histogram the per-request phase split
          feeds; any measurable load through a bounded queue must have
          recorded waits, so an empty histogram means the split is
          broken. *)
       gate ((histogram "serve.queue_wait_seconds").Telemetry.total > 0)
         "serve.queue_wait_seconds recorded nothing under load";
       let queue_p99_ms = quantile_ms "serve.queue_wait_seconds" 0.99 in
       let total_requests = streams * requests in
       let value = Option.value ~default:nan in
       let module Slo = Hb_sta.Serve.Slo in
       emit ~bench:"monitor"
         ~fields:
           [ ("design", Json.String "scale10k");
             ("p99_budget_ms", Json.Number p99_budget_ms);
             ("error_budget", Json.Number error_budget);
             ("breached", Json.Bool status.Slo.breached) ]
         [ [ count ~key:"streams" "streams" streams;
             count ~key:"requests_per_stream" "requests" requests;
             count ~key:"workers" "workers" workers;
             num ~key:"wall_s" "wall s" wall_s;
             num ~key:"rps" ~fmt:"%.0f" "req/s"
               (float_of_int total_requests /. Stdlib.max 1e-9 wall_s);
             count ~key:"window_observations" "observed" status.Slo.observations;
             num ~key:"p50_ms" ~fmt:"%.3f" "p50 ms" (value status.Slo.p50_ms);
             num ~key:"p99_ms" ~fmt:"%.3f" "p99 ms" (value status.Slo.p99_ms);
             num ~key:"queue_wait_p99_ms" ~fmt:"%.3f" "queue p99 ms" queue_p99_ms;
             num ~key:"error_rate" ~fmt:"%.3f" "error rate"
               (value status.Slo.error_rate);
             num ~key:"p99_burn" ~fmt:"%.3f" "p99 burn" (value status.Slo.p99_burn);
             num ~key:"error_burn" ~fmt:"%.3f" "error burn"
               (value status.Slo.error_burn) ] ];
       (* The acceptance bar: the SLO gate itself. A breach here is a real
          regression in queue discipline or the cached-read fast path. *)
       gate (status.Slo.observations >= total_requests)
         "window saw %d of %d requests — the rolling window dropped live \
          observations" status.Slo.observations total_requests;
       gate (not status.Slo.breached)
         "SLO breached — windowed p99 %.3f ms (budget %.0f), error rate %.3f \
          (budget %.2f)"
         (value status.Slo.p99_ms) p99_budget_ms (value status.Slo.error_rate)
         error_budget)

(* ------------------------------------------------------------------ *)
(* Socket load client (CI smoke): connect N clients to a running      *)
(* `hummingbird serve --socket` daemon and drive real traffic.        *)
(* ------------------------------------------------------------------ *)

(* `bench/main.exe --load-socket PATH [--clients N] [--requests K]`:
   every client loads the scale10k generator (the daemon shares one
   session across them) then issues K cached-read requests; any reply
   that is not status "ok" is a failure. Exits 0/1 — the CI smoke's
   assertion that the concurrent connection layer works end to end. *)
let serve_socket_client ~path ~clients ~requests =
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e -> Unix.close fd; raise e);
    fd
  in
  (* The daemon is started in the background by the caller — wait for
     the socket to accept rather than racing its bind. *)
  let deadline = now () +. 30.0 in
  let rec wait () =
    match connect () with
    | fd -> Unix.close fd
    | exception Unix.Unix_error _ ->
      if now () > deadline then
        failwith (Printf.sprintf "load client: %s never came up" path);
      Thread.delay 0.1;
      wait ()
  in
  wait ();
  let ok = Atomic.make 0 and bad = Atomic.make 0 in
  let run_client id () =
    let fd = connect () in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let send line =
      output_string oc line;
      output_char oc '\n';
      flush oc;
      input_line ic
    in
    let call n meth params =
      match serve_request send ~id:n meth params with
      | Ok () -> Atomic.incr ok
      | Error reply ->
        Atomic.incr bad;
        Printf.eprintf "client %d: bad reply: %s\n%!" id reply
    in
    call 1 "load" [ ("generator", Json.String "scale10k") ];
    for i = 1 to requests do
      call (i + 1) "analyse"
        [ ("constraints", Json.Bool false); ("hold", Json.Bool false) ]
    done;
    close_out_noerr oc
  in
  let _, crashed = run_streams (Array.init clients run_client) in
  let failures = Atomic.get bad + crashed in
  Printf.printf
    "serve load client: %d clients x %d requests+load, %d ok, %d failures\n"
    clients requests (Atomic.get ok) failures;
  exit (if failures > 0 then 1 else 0)

(* ------------------------------------------------------------------ *)
(* V1 — differential fuzz throughput                                  *)
(* ------------------------------------------------------------------ *)

(* Cost of one full differential pass (all cross-checks) per fuzzed
   design, and a parity gate on the pinned regression seeds: any
   divergence fails the bench with the one-line repro, exactly like the
   P1/P2 engine-parity gates. *)
let fuzz_bench ?(smoke = false) () =
  section "V1" "differential fuzz — checks per second";
  let derived = if smoke then 8 else 64 in
  let seeds =
    Hb_workload.Fuzz.regression_seeds
    @ Hb_workload.Fuzz.seed_list ~base:0xC0FFEEL derived
  in
  let elapsed, outcome =
    timed ~repeat:1 (fun () -> Hb_workload.Fuzz.run seeds)
  in
  emit
    [ [ text "batch" (Printf.sprintf "regression + %d derived" derived);
        count "seeds" (List.length seeds);
        num ~fmt:"%.1f" "seeds/s" (float_of_int (List.length seeds) /. elapsed) ] ];
  (match outcome.Hb_workload.Fuzz.failures with
   | [] -> ()
   | f :: _ ->
     gate false "fuzz divergence (%s: %s) — repro: %s"
       f.Hb_workload.Fuzz.check f.Hb_workload.Fuzz.detail
       (Hb_workload.Fuzz.repro_command f));
  (* The sabotage detector itself: the injected invalidation
     off-by-one must be caught within the same seed batch. *)
  let sabotage = Hb_workload.Fuzz.run ~inject:true seeds in
  let caught =
    List.exists
      (fun f -> f.Hb_workload.Fuzz.check = "cache-coherence")
      sabotage.Hb_workload.Fuzz.failures
  in
  gate caught "injected cache off-by-one escaped the fuzz batch";
  Printf.printf "injected off-by-one caught: %s (%d/%d seeds diverge)\n"
    (if caught then "yes" else "NO")
    (List.length sabotage.Hb_workload.Fuzz.failures)
    sabotage.Hb_workload.Fuzz.seeds_run

let () =
  (match argv_value "--load-socket" with
   | Some path ->
     let int_arg name default =
       match argv_value name with
       | Some v -> Option.value ~default (int_of_string_opt v)
       | None -> default
     in
     serve_socket_client ~path ~clients:(int_arg "--clients" 8)
       ~requests:(int_arg "--requests" 20)
   | None -> ());
  Printf.printf
    "Hummingbird benchmark harness — reproduces the paper's evaluation\n\
     artefacts (Weiner & Sangiovanni-Vincentelli, DAC 1989).\n";
  if Array.mem "--smoke" Sys.argv then begin
    slack_engine ~designs:[ chip "DES"; chip "ALU" ] ();
    path_engine ~designs:[ List.hd path_engine_designs ] ~ks:[ 10; 100 ] ();
    telemetry_bench ();
    session_bench ();
    scale_bench ~smoke:true ();
    snapshot_bench ~smoke:true ();
    serve_load_bench ~smoke:true ();
    monitor_bench ~smoke:true ();
    fuzz_bench ~smoke:true ()
  end
  else begin
    table1 ();
    figure1 ();
    figure3 ();
    figure4 ();
    ablate_block_vs_paths ();
    ablate_passes ();
    ablate_clock_speed ();
    redesign_convergence ();
    ablate_rise_fall ();
    ablate_delay_models ();
    ablate_false_paths ();
    ablate_incremental ();
    scaling ();
    slack_engine ();
    path_engine ();
    telemetry_bench ();
    session_bench ();
    scale_bench ();
    snapshot_bench ();
    serve_load_bench ();
    monitor_bench ();
    fuzz_bench ()
  end;
  finish ()
