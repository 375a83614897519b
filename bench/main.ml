(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablations listed in DESIGN.md.

   Sections (ids match DESIGN.md / EXPERIMENTS.md):
     T1  — Table 1: run times for DES / ALU / SM1F / SM1H
     F1  — Figure 1: minimum settling times for time-multiplexed logic
     F3  — Figure 3: transparent-latch offset window (worked example)
     F4  — Figure 4: clock-edge graph break-open example
     A1  — ablation: block method vs. exact path enumeration
     A2  — ablation: minimum passes vs. per-source-edge settling times
     A3  — ablation: Algorithm 1 iteration count vs. clock period
     A4  — ablation: Algorithm 3 redesign convergence
     uB  — bechamel micro-benchmarks (one Test.make per table/figure)

   Run with:  dune exec bench/main.exe *)

let section title =
  Printf.printf "\n==================== %s ====================\n" title

let lib = Hb_cell.Library.default ()

(* Temp-and-rename so a crash (or ctrl-C) mid-write never leaves a
   truncated BENCH_*.json for the regression harness to parse; readers
   see either the old document or the complete new one. *)
let write_file_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try output_string oc content with e -> close_out_noerr oc; raise e);
  close_out oc;
  Sys.rename tmp path


(* Median-of-n wall-seconds measurement ([Unix.gettimeofday], monotonic
   enough for benchmarking). Cpu seconds ([Sys.time]) would double-count
   domain-parallel work: n domains spinning for t seconds report n*t. *)
let measure ?(repeat = 3) f =
  let times =
    List.init repeat (fun _ ->
        let start = Unix.gettimeofday () in
        ignore (f ());
        Unix.gettimeofday () -. start)
  in
  List.nth (List.sort compare times) (repeat / 2)

(* ------------------------------------------------------------------ *)
(* T1 — Table 1                                                       *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "T1: Table 1 — run times (cpu seconds)";
  Printf.printf
    "paper: VAX 8800 cpu seconds; DES total was 14.87 s. Absolute times\n\
     differ on modern hardware; the shape to check is the scaling with\n\
     design size and the SM1H (hierarchical) speed-up over SM1F.\n\n";
  let designs =
    [ ("DES", fun () -> Hb_workload.Chips.des ());
      ("ALU", fun () -> Hb_workload.Chips.alu ());
      ("SM1F", fun () -> Hb_workload.Chips.sm1f ());
      ("SM1H", fun () -> Hb_workload.Chips.sm1h ());
      ("DSP*", fun () -> Hb_workload.Chips.dsp ());
      (* DSP* is not in the paper's table: a multirate (1x + 2x clocks)
         datapath added to exercise multi-frequency analysis at scale. *)
    ]
  in
  let rows =
    List.map
      (fun (name, make) ->
         let design, system = make () in
         let stats = Hb_netlist.Stats.compute design in
         let pre =
           measure (fun () -> Hb_sta.Engine.preprocess ~design ~system ())
         in
         let ctx = Hb_sta.Context.make ~design ~system () in
         let analysis =
           measure (fun () ->
               Hb_sta.Elements.reset_offsets ctx.Hb_sta.Context.elements;
               Hb_sta.Algorithm1.run ctx)
         in
         let outcome = Hb_sta.Algorithm1.run ctx in
         [ name;
           string_of_int stats.Hb_netlist.Stats.cells;
           string_of_int stats.Hb_netlist.Stats.nets;
           Printf.sprintf "%.4f" pre;
           Printf.sprintf "%.4f" analysis;
           (match outcome.Hb_sta.Algorithm1.status with
            | Hb_sta.Algorithm1.Meets_timing -> "ok"
            | Hb_sta.Algorithm1.Slow_paths -> "slow") ])
      designs
  in
  Hb_util.Table.print
    ~header:[ "example"; "cells"; "nets"; "pre-process s"; "analysis s"; "verdict" ]
    ~align:Hb_util.Table.[ Left; Right; Right; Right; Right; Left ]
    rows

(* ------------------------------------------------------------------ *)
(* F1 — Figure 1                                                      *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section "F1: Figure 1 — minimum number of settling times";
  let design, system = Hb_workload.Figures.figure1 () in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let settling = Hb_sta.Baseline.settling_times ctx in
  let cone =
    List.fold_left
      (fun acc (_, m, n) -> if n > snd acc then (m, n) else acc)
      (0, 0) settling.Hb_sta.Baseline.per_cluster
  in
  Printf.printf
    "four-phase time-multiplexed cone: %d analysis passes (paper: 2);\n\
     per-source-edge accounting needs %d (paper narrative: 4)\n"
    (fst cone) (snd cone);
  Printf.printf "whole design: %d passes minimum vs %d per-edge\n"
    settling.Hb_sta.Baseline.minimized_passes
    settling.Hb_sta.Baseline.naive_settling_times;
  assert (cone = (2, 4))

(* ------------------------------------------------------------------ *)
(* F3 — Figure 3                                                      *)
(* ------------------------------------------------------------------ *)

let figure3 () =
  section "F3: Figure 3 — transparent-latch offset relationship";
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
  assert (Float.abs (o_zd -. 5.0) < 1e-9);
  let interval = Hb_sync.Model.o_dz_interval kind params in
  Printf.printf "offset window: O_dz in [%.1f, %.1f], O_zd in [%.1f, %.1f]\n"
    (Hb_util.Interval.lo interval) (Hb_util.Interval.hi interval)
    (Hb_sync.Model.o_zd kind params ~o_dz:(Hb_util.Interval.lo interval))
    (Hb_sync.Model.o_zd kind params ~o_dz:(Hb_util.Interval.hi interval))

(* ------------------------------------------------------------------ *)
(* F4 — Figure 4                                                      *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  section "F4: Figure 4 — breaking open the clock period";
  let _system, labels = Hb_workload.Figures.figure4_edges () in
  Printf.printf "clock edges (circular order): %s\n"
    (String.concat " "
       (List.map
          (fun (label, edge) ->
             Printf.sprintf "%s=%s" label (Hb_clock.Edge.to_string edge))
          labels));
  (* Requirement of the worked example: edge E before edge C. *)
  let node_of label =
    let rec index i = function
      | [] -> failwith "label"
      | (l, _) :: rest -> if l = label then i else index (i + 1) rest
    in
    index 0 labels
  in
  let req = { Hb_clock.Break.before = node_of "E"; after = node_of "C" } in
  let cuts = Hb_clock.Break.solve ~node_count:8 [ req ] in
  let cut = List.hd cuts in
  let order =
    List.sort
      (fun (a, _) (b, _) ->
         compare
           (Hb_clock.Break.position ~node_count:8 ~cut (node_of a))
           (Hb_clock.Break.position ~node_count:8 ~cut (node_of b)))
      labels
  in
  Printf.printf
    "requirement \"E before C\": solver removes arc %d; resulting order: %s\n"
    cut
    (String.concat " " (List.map fst order));
  Printf.printf "(paper: removing arc D->E gives E F G H A B C D)\n";
  assert (List.length cuts = 1);
  assert (Hb_clock.Break.satisfies ~node_count:8 ~cut req)

(* ------------------------------------------------------------------ *)
(* A1 — block vs path enumeration                                     *)
(* ------------------------------------------------------------------ *)

let ablate_block_vs_paths () =
  section "A1: block method vs exact path enumeration";
  Printf.printf
    "same verdicts, very different cost (the reason Section 7 chooses the\n\
     block method).\n\n";
  let rows =
    List.map
      (fun stages ->
         let design, system =
           Hb_workload.Pipelines.two_phase ~width:6 ~stages
             ~gates_per_stage:60 ()
         in
         let ctx = Hb_sta.Context.make ~design ~system () in
         let block_time = measure (fun () -> Hb_sta.Slacks.compute ctx) in
         let enum_time =
           measure (fun () -> Hb_sta.Reference.evaluate ctx ~max_paths:5_000_000)
         in
         let block = Hb_sta.Slacks.compute ctx in
         let enum = Hb_sta.Reference.evaluate ctx ~max_paths:5_000_000 in
         let agree =
           Array.for_all2
             (fun s b ->
                (not (Hb_util.Time.is_finite s)) || Float.abs (s -. b) < 1e-6)
             enum.Hb_sta.Reference.element_input_slack
             block.Hb_sta.Slacks.element_input_slack
         in
         [ string_of_int stages;
           string_of_int enum.Hb_sta.Reference.paths_walked;
           Printf.sprintf "%.5f" block_time;
           Printf.sprintf "%.5f" enum_time;
           Printf.sprintf "%.1fx" (enum_time /. Stdlib.max 1e-9 block_time);
           (if agree then "yes" else "NO") ])
      [ 2; 3; 4; 5 ]
  in
  Hb_util.Table.print
    ~header:
      [ "stages"; "paths_walked"; "block s"; "enumeration s"; "ratio"; "agree" ]
    ~align:Hb_util.Table.[ Right; Right; Right; Right; Right; Left ]
    rows

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
  section "A2: minimum passes vs per-source-edge settling times";
  Printf.printf
    "generalised Figure 1: a cone fed by latches on n phases, captured on\n\
     two. Per-edge accounting needs n settling evaluations; the Section 7\n\
     pre-processing needs at most 2.\n\n";
  let rows =
    List.map
      (fun n ->
         let design, system = n_phase_cone n in
         let ctx = Hb_sta.Context.make ~design ~system () in
         let settling = Hb_sta.Baseline.settling_times ctx in
         let cone =
           List.fold_left
             (fun acc (_, m, naive) -> if naive > snd acc then (m, naive) else acc)
             (0, 0) settling.Hb_sta.Baseline.per_cluster
         in
         [ string_of_int n; string_of_int (fst cone); string_of_int (snd cone) ])
      [ 2; 3; 4; 6; 8 ]
  in
  Hb_util.Table.print ~header:[ "phases"; "min passes"; "per-edge" ]
    ~align:Hb_util.Table.[ Right; Right; Right ]
    rows

(* ------------------------------------------------------------------ *)
(* A3 — iterations vs clock speed                                     *)
(* ------------------------------------------------------------------ *)

let ablate_clock_speed () =
  section "A3: Algorithm 1 iterations vs clock period";
  Printf.printf
    "\"the number of iterations required, and hence the run times, depend\n\
     upon the specified clock speeds\" (paper, Section 8).\n\n";
  let design, _ =
    Hb_workload.Pipelines.two_phase ~width:6 ~stages:5 ~gates_per_stage:50 ()
  in
  let rows =
    List.map
      (fun period ->
         let system =
           Hb_clock.System.make ~overall_period:period
             [ Hb_clock.Waveform.make ~name:"phi1" ~multiplier:1 ~rise:0.0
                 ~width:(0.4 *. period);
               Hb_clock.Waveform.make ~name:"phi2" ~multiplier:1
                 ~rise:(0.5 *. period) ~width:(0.4 *. period) ]
         in
         let ctx = Hb_sta.Context.make ~design ~system () in
         let outcome = Hb_sta.Algorithm1.run ctx in
         [ Printf.sprintf "%.0f" period;
           string_of_int outcome.Hb_sta.Algorithm1.forward_cycles;
           string_of_int outcome.Hb_sta.Algorithm1.backward_cycles;
           Printf.sprintf "%.3f" outcome.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst;
           (match outcome.Hb_sta.Algorithm1.status with
            | Hb_sta.Algorithm1.Meets_timing -> "ok"
            | Hb_sta.Algorithm1.Slow_paths -> "slow") ])
      [ 16.0; 20.0; 24.0; 32.0; 48.0; 64.0; 100.0 ]
  in
  Hb_util.Table.print
    ~header:[ "period ns"; "fwd cycles"; "bwd cycles"; "worst slack"; "verdict" ]
    ~align:Hb_util.Table.[ Right; Right; Right; Right; Left ]
    rows

(* ------------------------------------------------------------------ *)
(* A4 — redesign convergence                                          *)
(* ------------------------------------------------------------------ *)

let redesign_convergence () =
  section "A4: Algorithm 3 redesign convergence";
  let design, system =
    Hb_workload.Pipelines.edge_ff ~period:13.5 ~width:6 ~stages:4
      ~gates_per_stage:40 ()
  in
  let result = Hb_resynth.Loop.optimise ~design ~system ~library:lib () in
  let rows =
    List.map
      (fun (s : Hb_resynth.Loop.step) ->
         [ string_of_int s.Hb_resynth.Loop.iteration;
           Printf.sprintf "%.3f" s.Hb_resynth.Loop.worst_slack;
           Printf.sprintf "%.1f" s.Hb_resynth.Loop.area;
           string_of_int (List.length s.Hb_resynth.Loop.changed) ])
      result.Hb_resynth.Loop.history
    @ [ [ "final";
          Printf.sprintf "%.3f" result.Hb_resynth.Loop.final_worst_slack;
          Printf.sprintf "%.1f" result.Hb_resynth.Loop.final_area;
          "-" ] ]
  in
  Hb_util.Table.print
    ~header:[ "iteration"; "worst slack"; "area"; "upsized" ]
    ~align:Hb_util.Table.[ Right; Right; Right; Right ]
    rows;
  Printf.printf "timing %s after %d iterations\n"
    (if result.Hb_resynth.Loop.met_timing then "met" else "NOT met")
    result.Hb_resynth.Loop.iterations

(* ------------------------------------------------------------------ *)
(* A5 — rise/fall separation vs scalar arrivals                       *)
(* ------------------------------------------------------------------ *)

let ablate_rise_fall () =
  section "A5: rise/fall-separated arrivals vs scalar (pessimism)";
  Printf.printf
    "the paper adopts Bening et al. [7]: rising and falling settling times\n\
     are calculated separately. The scalar model takes the worst of the\n\
     two per arc and is safe but pessimistic through inverting chains.\n\n";
  let rf_config = { Hb_sta.Config.default with Hb_sta.Config.rise_fall = true } in
  let rows =
    List.map
      (fun (name, make) ->
         let design, system = make () in
         let slacks config =
           let ctx = Hb_sta.Context.make ~design ~system ~config () in
           (Hb_sta.Slacks.compute ctx).Hb_sta.Slacks.element_input_slack
         in
         let scalar = slacks Hb_sta.Config.default in
         let rf = slacks rf_config in
         let improved = ref 0 and total = ref 0 in
         let sum = ref 0.0 and biggest = ref 0.0 in
         Array.iteri
           (fun i s ->
              if Hb_util.Time.is_finite s && Hb_util.Time.is_finite rf.(i)
              then begin
                incr total;
                let gain = rf.(i) -. s in
                if gain > 1e-9 then begin
                  incr improved;
                  sum := !sum +. gain;
                  if gain > !biggest then biggest := gain
                end
              end)
           scalar;
         [ name;
           string_of_int !total;
           string_of_int !improved;
           Printf.sprintf "%.3f"
             (if !improved = 0 then 0.0 else !sum /. float_of_int !improved);
           Printf.sprintf "%.3f" !biggest ])
      [ ("ALU", fun () -> Hb_workload.Chips.alu ());
        ("SM1F", fun () -> Hb_workload.Chips.sm1f ());
        ("pipeline",
         fun () ->
           Hb_workload.Pipelines.two_phase ~width:6 ~stages:4
             ~gates_per_stage:60 ());
        ("DES", fun () -> Hb_workload.Chips.des ());
      ]
  in
  Hb_util.Table.print
    ~header:
      [ "design"; "endpoints"; "improved"; "mean gain ns"; "max gain ns" ]
    ~align:Hb_util.Table.[ Left; Right; Right; Right; Right ]
    rows

(* ------------------------------------------------------------------ *)
(* A6 — component-delay estimators                                    *)
(* ------------------------------------------------------------------ *)

let ablate_delay_models () =
  section "A6: component-delay estimators (lumped vs RC/Elmore)";
  Printf.printf
    "the paper separates component delay estimation from system analysis\n\
     so estimators can be swapped; comparing the empirical lumped formula\n\
     against a switch-level-style Elmore model over synthetic interconnect.\n\n";
  let rows =
    List.map
      (fun (name, make) ->
         let design, system = make () in
         let worst delays =
           let ctx = Hb_sta.Context.make ~design ~system ?delays () in
           (Hb_sta.Algorithm1.run ctx).Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst
         in
         let lumped = worst None in
         let rc_star = worst (Some (Hb_sta.Delays.rc ())) in
         let rc_chain =
           worst
             (Some
                (Hb_sta.Delays.rc
                   ~parameters:
                     { Hb_rc.Wire_model.default with
                       Hb_rc.Wire_model.topology = Hb_rc.Wire_model.Chain }
                   ()))
         in
         [ name;
           Printf.sprintf "%.3f" lumped;
           Printf.sprintf "%.3f" rc_star;
           Printf.sprintf "%.3f" rc_chain ])
      [ ("ALU", fun () -> Hb_workload.Chips.alu ());
        ("SM1F", fun () -> Hb_workload.Chips.sm1f ());
        ("DES", fun () -> Hb_workload.Chips.des ());
      ]
  in
  Hb_util.Table.print
    ~header:[ "design"; "lumped worst"; "rc star worst"; "rc chain worst" ]
    ~align:Hb_util.Table.[ Left; Right; Right; Right ]
    rows

(* ------------------------------------------------------------------ *)
(* A7 — false-path pessimism                                          *)
(* ------------------------------------------------------------------ *)

let ablate_false_paths () =
  section "A7: false-path pessimism (block method vs static sensitisation)";
  Printf.printf
    "Section 7 concedes that the block method cannot discard false paths\n\
     and is safely pessimistic. Static sensitisation (an extension) proves\n\
     some critical paths false and recovers the pessimism, here measured\n\
     on reconvergent chains with a conflicting shared side net.\n\n";
  let rows =
    List.map
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
         match Hb_sta.False_paths.refine_endpoint ctx ~endpoint () with
         | Some refined ->
           let true_slack =
             match refined.Hb_sta.False_paths.true_slack with
             | Some t -> Printf.sprintf "%.3f" t
             | None -> "-"
           in
           let recovered =
             match refined.Hb_sta.False_paths.true_slack with
             | Some t -> Printf.sprintf "%.3f" (t -. refined.Hb_sta.False_paths.block_slack)
             | None -> "-"
           in
           [ Printf.sprintf "%d+%d" head tail;
             Printf.sprintf "%.3f" refined.Hb_sta.False_paths.block_slack;
             true_slack;
             string_of_int refined.Hb_sta.False_paths.false_skipped;
             recovered ]
         | None -> [ Printf.sprintf "%d+%d" head tail; "-"; "-"; "-"; "-" ])
      [ (2, 2); (4, 2); (8, 2); (16, 2) ]
  in
  Hb_util.Table.print
    ~header:
      [ "chain (head+tail)"; "block slack"; "true slack"; "false skipped";
        "pessimism recovered" ]
    ~align:Hb_util.Table.[ Left; Right; Right; Right; Right ]
    rows

(* ------------------------------------------------------------------ *)
(* A8 — incremental re-analysis in the redesign loop                  *)
(* ------------------------------------------------------------------ *)

let ablate_incremental () =
  section "A8: incremental context refresh vs full rebuild";
  Printf.printf
    "the analysis/redesign loop only perturbs delays, so the cluster\n\
     decomposition and pass plans can be reused between iterations.\n\n";
  let rows =
    List.map
      (fun (name, make) ->
         let design, system = make () in
         let ctx = Hb_sta.Context.make ~design ~system () in
         let full =
           measure ~repeat:3 (fun () ->
               Hb_sta.Context.make ~design ~system ())
         in
         let incremental =
           measure ~repeat:3 (fun () ->
               Hb_sta.Context.update_design ctx ~design ())
         in
         [ name;
           Printf.sprintf "%.4f" full;
           Printf.sprintf "%.4f" incremental;
           Printf.sprintf "%.1fx" (full /. Stdlib.max 1e-9 incremental) ])
      [ ("ALU", fun () -> Hb_workload.Chips.alu ());
        ("DES", fun () -> Hb_workload.Chips.des ());
      ]
  in
  Hb_util.Table.print
    ~header:[ "design"; "full rebuild s"; "incremental s"; "speedup" ]
    ~align:Hb_util.Table.[ Left; Right; Right; Right ]
    rows

(* ------------------------------------------------------------------ *)
(* S1 — scaling beyond Table 1                                        *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section "S1: scaling — analysis cost vs design size";
  Printf.printf
    "the paper's claim is that the method is \"indeed, very fast\";\n\
     two-phase latch pipelines grown past Table 1 sizes show near-linear\n\
     pre-processing and analysis cost.\n\n";
  let rows =
    List.map
      (fun (width, stages, gates) ->
         let design, system =
           Hb_workload.Pipelines.two_phase ~width ~stages
             ~gates_per_stage:gates ()
         in
         let stats = Hb_netlist.Stats.compute design in
         let pre =
           measure ~repeat:3 (fun () ->
               Hb_sta.Engine.preprocess ~design ~system ())
         in
         let ctx = Hb_sta.Context.make ~design ~system () in
         let analysis =
           measure ~repeat:3 (fun () ->
               Hb_sta.Elements.reset_offsets ctx.Hb_sta.Context.elements;
               Hb_sta.Algorithm1.run ctx)
         in
         [ string_of_int stats.Hb_netlist.Stats.cells;
           string_of_int stats.Hb_netlist.Stats.nets;
           Printf.sprintf "%.4f" pre;
           Printf.sprintf "%.4f" analysis ])
      [ (8, 4, 250); (16, 5, 800); (16, 8, 1500); (32, 8, 2500) ]
  in
  Hb_util.Table.print
    ~header:[ "cells"; "nets"; "pre-process s"; "analysis s" ]
    ~align:Hb_util.Table.[ Right; Right; Right; Right ]
    rows

(* ------------------------------------------------------------------ *)
(* P1 — incremental + parallel slack engine                           *)
(* ------------------------------------------------------------------ *)

let slack_engine_designs =
  [ ("DES", fun () -> Hb_workload.Chips.des ());
    ("ALU", fun () -> Hb_workload.Chips.alu ());
    ("SM1F", fun () -> Hb_workload.Chips.sm1f ());
    ("SM1H", fun () -> Hb_workload.Chips.sm1h ());
    ("DSP", fun () -> Hb_workload.Chips.dsp ());
  ]

let slack_engine ?(designs = slack_engine_designs) () =
  section "P1: slack engine — incremental/parallel vs seed sequential";
  Printf.printf
    "full Algorithm 1 run (offsets reset each repetition) under three\n\
     configurations: the seed's from-scratch sequential evaluation, the\n\
     dirty-cluster incremental engine on one domain, and incremental\n\
     evaluation fanned across the domain pool. All three must agree\n\
     bit-for-bit; wall seconds, median of 3.\n\n";
  let jobs = Stdlib.max 2 (Hb_util.Pool.recommended_jobs ()) in
  let results =
    List.map
      (fun (name, make) ->
         let design, system = make () in
         let stats = Hb_netlist.Stats.compute design in
         let run config =
           let ctx = Hb_sta.Context.make ~design ~system ~config () in
           let seconds =
             measure ~repeat:3 (fun () ->
                 Hb_sta.Elements.reset_offsets ctx.Hb_sta.Context.elements;
                 Hb_sta.Algorithm1.run ctx)
           in
           Hb_sta.Elements.reset_offsets ctx.Hb_sta.Context.elements;
           (seconds, Hb_sta.Algorithm1.run ctx)
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
         if not (same seq inc && same seq par) then
           failwith (Printf.sprintf "P1: %s: engine outcomes disagree" name);
         (name, stats, seq_s, inc_s, par_s))
      designs
  in
  Hb_util.Table.print
    ~header:
      [ "design"; "cells"; "nets"; "sequential s"; "incremental s";
        Printf.sprintf "parallel s (j=%d)" jobs; "speedup" ]
    ~align:Hb_util.Table.[ Left; Right; Right; Right; Right; Right; Right ]
    (List.map
       (fun (name, stats, seq_s, inc_s, par_s) ->
          let best = Stdlib.min inc_s par_s in
          [ name;
            string_of_int stats.Hb_netlist.Stats.cells;
            string_of_int stats.Hb_netlist.Stats.nets;
            Printf.sprintf "%.4f" seq_s;
            Printf.sprintf "%.4f" inc_s;
            Printf.sprintf "%.4f" par_s;
            Printf.sprintf "%.1fx" (seq_s /. Stdlib.max 1e-9 best) ])
       results);
  (* Machine-readable record for regression tracking. *)
  let out = Buffer.create 4096 in
  Printf.bprintf out "{\n  \"benchmark\": \"slack_engine\",\n  \"jobs\": %d,\n  \"designs\": [" jobs;
  List.iteri
    (fun i (name, (stats : Hb_netlist.Stats.t), seq_s, inc_s, par_s) ->
       Printf.bprintf out
         "%s\n    {\"design\": \"%s\", \"cells\": %d, \"nets\": %d, \
          \"sequential_s\": %.6f, \"incremental_s\": %.6f, \"parallel_s\": %.6f, \
          \"speedup\": %.2f}"
         (if i = 0 then "" else ",")
         name stats.Hb_netlist.Stats.cells stats.Hb_netlist.Stats.nets
         seq_s inc_s par_s
         (seq_s /. Stdlib.max 1e-9 (Stdlib.min inc_s par_s)))
    results;
  Printf.bprintf out "\n  ]\n}\n";
  write_file_atomic "BENCH_slack_engine.json" (Buffer.contents out);
  Printf.printf "\nwrote BENCH_slack_engine.json\n"

(* ------------------------------------------------------------------ *)
(* P2 — k-worst path enumeration: pooled/pruned vs seed               *)
(* ------------------------------------------------------------------ *)

(* Random register/cloud soups at the paper's DES and ALU cell counts:
   soup clouds are far more reconvergent than the structured chips, which
   is exactly what separates a pruning enumerator from an exhaustive
   best-first one. *)
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
  section "P2: k-worst paths — predecessor pool + pruning vs seed enumerator";
  Printf.printf
    "k-worst path enumeration into the 16 worst endpoints. Old: the\n\
     seed's best-first search with a materialised hop list per state\n\
     (Baseline.k_worst_paths). New: shared-prefix predecessor pool with\n\
     arena scratch and admissible-bound pruning (Paths.enumerate). Both\n\
     must return bit-identical slack sequences; wall seconds median of\n\
     3, allocation bytes from Gc.allocated_bytes over one sweep.\n\n";
  let results = ref [] in
  List.iter
    (fun (name, make) ->
       let design, system = make () in
       let ctx =
         Hb_sta.Context.make ~design ~system
           ~config:Hb_sta.Config.sequential ()
       in
       let outcome = Hb_sta.Algorithm1.run ctx in
       let endpoints =
         List.map fst
           (Hb_sta.Paths.worst_endpoints ctx
              outcome.Hb_sta.Algorithm1.final ~limit:16)
       in
       List.iter
         (fun k ->
            let old_sweep () =
              List.iter
                (fun endpoint ->
                   ignore
                     (Hb_sta.Baseline.k_worst_paths ctx ~endpoint ~limit:k))
                endpoints
            in
            let new_sweep () =
              List.iter
                (fun endpoint ->
                   ignore (Hb_sta.Paths.enumerate ctx ~endpoint ~limit:k))
                endpoints
            in
            (* Parity: identical path count and bit-identical slack per
               rank, endpoint by endpoint. *)
            List.iter
              (fun endpoint ->
                 let old_paths =
                   Hb_sta.Baseline.k_worst_paths ctx ~endpoint ~limit:k
                 in
                 let new_paths =
                   Hb_sta.Paths.enumerate ctx ~endpoint ~limit:k
                 in
                 if List.length old_paths <> List.length new_paths then
                   failwith
                     (Printf.sprintf "P2: %s k=%d endpoint %d: %d vs %d paths"
                        name k endpoint (List.length old_paths)
                        (List.length new_paths));
                 List.iter2
                   (fun (o : Hb_sta.Paths.path) (n : Hb_sta.Paths.path) ->
                      if not (Hb_util.Time.equal o.Hb_sta.Paths.slack
                                n.Hb_sta.Paths.slack) then
                        failwith
                          (Printf.sprintf
                             "P2: %s k=%d endpoint %d: slack mismatch %g vs %g"
                             name k endpoint o.Hb_sta.Paths.slack
                             n.Hb_sta.Paths.slack))
                   old_paths new_paths)
              endpoints;
            (* Warm the per-domain scratch before measuring. *)
            new_sweep ();
            let old_s = measure ~repeat:3 old_sweep in
            let new_s = measure ~repeat:3 new_sweep in
            (* Average of 5 sweeps: the runtime folds minor-heap words
               into the Gc counters at collection boundaries, so a single
               sweep can alias with GC timing. *)
            let alloc f =
              let before = Gc.allocated_bytes () in
              for _ = 1 to 5 do f () done;
              (Gc.allocated_bytes () -. before) /. 5.0
            in
            let old_alloc = alloc old_sweep in
            let new_alloc = alloc new_sweep in
            results :=
              (name, k, old_s, new_s, old_alloc, new_alloc) :: !results)
         ks)
    designs;
  let results = List.rev !results in
  Hb_util.Table.print
    ~header:
      [ "design"; "k"; "old s"; "new s"; "speedup"; "old alloc MB";
        "new alloc MB"; "alloc ratio" ]
    ~align:
      Hb_util.Table.[ Left; Right; Right; Right; Right; Right; Right; Right ]
    (List.map
       (fun (name, k, old_s, new_s, old_alloc, new_alloc) ->
          [ name;
            string_of_int k;
            Printf.sprintf "%.4f" old_s;
            Printf.sprintf "%.4f" new_s;
            Printf.sprintf "%.1fx" (old_s /. Stdlib.max 1e-9 new_s);
            Printf.sprintf "%.2f" (old_alloc /. 1e6);
            Printf.sprintf "%.2f" (new_alloc /. 1e6);
            Printf.sprintf "%.1fx" (old_alloc /. Stdlib.max 1.0 new_alloc) ])
       results);
  let out = Buffer.create 4096 in
  Printf.bprintf out "{\n  \"benchmark\": \"paths\",\n  \"endpoints\": 16,\n  \"runs\": [";
  List.iteri
    (fun i (name, k, old_s, new_s, old_alloc, new_alloc) ->
       Printf.bprintf out
         "%s\n    {\"design\": \"%s\", \"k\": %d, \"old_s\": %.6f, \
          \"new_s\": %.6f, \"speedup\": %.2f, \"old_alloc_bytes\": %.0f, \
          \"new_alloc_bytes\": %.0f, \"alloc_ratio\": %.2f}"
         (if i = 0 then "" else ",")
         name k old_s new_s
         (old_s /. Stdlib.max 1e-9 new_s)
         old_alloc new_alloc
         (old_alloc /. Stdlib.max 1.0 new_alloc))
    results;
  Printf.bprintf out "\n  ]\n}\n";
  write_file_atomic "BENCH_paths.json" (Buffer.contents out);
  Printf.printf "\nwrote BENCH_paths.json\n"

let argv_value name =
  let argv = Sys.argv in
  let rec scan i =
    if i + 1 >= Array.length argv then None
    else if argv.(i) = name then Some argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

(* ------------------------------------------------------------------ *)
(* P3 — telemetry: disabled overhead and enabled counters             *)
(* ------------------------------------------------------------------ *)

let telemetry_bench () =
  section "P3: telemetry — disabled overhead and enabled counters";
  Printf.printf
    "full DES analysis with the telemetry registry disabled (the default)\n\
     and enabled. Every instrumentation site is one Atomic.get plus a\n\
     branch when disabled, so the off column must stay at the P1/P2-era\n\
     cost; the on column prices the per-domain counter shards and phase\n\
     spans. Wall seconds, median of 5.\n\n";
  let design, system = Hb_workload.Chips.des () in
  let analyse config =
    ignore (Hb_sta.Engine.analyse ~design ~system ~config ())
  in
  let off_config = Hb_sta.Config.default in
  let on_config =
    { Hb_sta.Config.default with Hb_sta.Config.telemetry = true }
  in
  Hb_util.Telemetry.set_enabled false;
  Hb_util.Telemetry.reset ();
  let off_s = measure ~repeat:5 (fun () -> analyse off_config) in
  (* The logging-off budget gate: a disabled log site and a disabled
     histogram observation must cost what a disabled counter costs — one
     atomic load and a branch, no allocation, no formatting. Measured
     here while the registry is off. *)
  let ns_per op =
    let iters = 5_000_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do op () done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let c_probe = Hb_util.Telemetry.counter "bench.p3_probe" in
  let h_probe = Hb_util.Telemetry.histogram "bench.p3_probe_seconds" in
  let counter_ns = ns_per (fun () -> Hb_util.Telemetry.incr c_probe) in
  let observe_ns = ns_per (fun () -> Hb_util.Telemetry.observe h_probe 1.0) in
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
       if ns > budget then
         failwith
           (Printf.sprintf
              "P3: disabled %s site costs %.1f ns/call — over the %.1f ns \
               telemetry-off budget" what ns budget))
    [ ("histogram", observe_ns); ("log", log_ns) ];
  Hb_util.Telemetry.set_enabled true;
  Hb_util.Telemetry.reset ();
  let on_s = measure ~repeat:5 (fun () -> analyse on_config) in
  (* A k-worst sweep while the registry is live, so the Paths counters
     appear in the same snapshot. *)
  let ctx = Hb_sta.Context.make ~design ~system ~config:on_config () in
  let outcome = Hb_sta.Algorithm1.run ctx in
  let endpoints =
    List.map fst
      (Hb_sta.Paths.worst_endpoints ctx outcome.Hb_sta.Algorithm1.final
         ~limit:8)
  in
  List.iter
    (fun endpoint -> ignore (Hb_sta.Paths.enumerate ctx ~endpoint ~limit:100))
    endpoints;
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
  let oc = open_out hbc in
  output_string oc (Hb_clock.System.to_string system);
  close_out oc;
  Hb_util.Log.reset ();
  Hb_util.Log.set_level Hb_util.Log.Debug;
  Hb_util.Log.set_sink (fun _ -> ());
  let flight = ref "" in
  let daemon = Hb_sta.Serve.create ~dump:(fun doc -> flight := doc) () in
  let request fields =
    ignore
      (Hb_sta.Serve.handle_line daemon
         (Hb_util.Json.to_string (Hb_util.Json.Obj fields)))
  in
  request
    [ ("id", Hb_util.Json.Number 1.0);
      ("method", Hb_util.Json.String "load");
      ( "params",
        Hb_util.Json.Obj
          [ ("netlist", Hb_util.Json.String hbn);
            ("clocks", Hb_util.Json.String hbc);
          ] );
    ];
  request
    [ ("id", Hb_util.Json.Number 2.0);
      ("method", Hb_util.Json.String "analyse");
      ("request_id", Hb_util.Json.String "bench-p3");
    ];
  request
    [ ("id", Hb_util.Json.Number 3.0);
      ("method", Hb_util.Json.String "paths");
      ("params", Hb_util.Json.Obj [ ("limit", Hb_util.Json.Number 10.0) ]);
    ];
  request
    [ ("id", Hb_util.Json.Number 4.0);
      ("method", Hb_util.Json.String "scale_delay");
      ( "params",
        Hb_util.Json.Obj
          [ ( "instance",
              Hb_util.Json.String
                (Hb_netlist.Design.instance design 0).Hb_netlist.Design.inst_name );
            ("factor", Hb_util.Json.Number 1.05);
          ] );
    ];
  request
    [ ("id", Hb_util.Json.Number 5.0);
      ("method", Hb_util.Json.String "scale_delay");
      ( "params",
        Hb_util.Json.Obj
          [ ("instance", Hb_util.Json.String "no-such-instance");
            ("factor", Hb_util.Json.Number 1.1);
          ] );
    ];
  request
    [ ("id", Hb_util.Json.Number 6.0);
      ("method", Hb_util.Json.String "shutdown");
    ];
  Sys.remove hbn;
  Sys.remove hbc;
  if !flight = "" then
    failwith "P3: error reply did not produce a flight-recorder dump";
  (match Hb_util.Json.parse !flight with
   | exception Hb_util.Json.Parse_error _ ->
     failwith "P3: flight-recorder dump is not valid JSON"
   | _ -> ());
  let log_sites = Hb_util.Log.emitted_sites () in
  Hb_util.Log.set_level Hb_util.Log.Off;
  Hb_util.Log.set_sink_default ();
  let snap = Hb_util.Telemetry.snapshot () in
  let overhead_pct = (on_s -. off_s) /. Stdlib.max 1e-9 off_s *. 100.0 in
  Hb_util.Table.print
    ~header:[ "design"; "telemetry off s"; "telemetry on s"; "overhead" ]
    ~align:Hb_util.Table.[ Left; Right; Right; Right ]
    [ [ "DES";
        Printf.sprintf "%.4f" off_s;
        Printf.sprintf "%.4f" on_s;
        Printf.sprintf "%+.1f%%" overhead_pct ] ];
  Printf.printf "\ncounters (5 analysis repetitions + path sweep):\n";
  Hb_util.Table.print ~header:[ "counter"; "value" ]
    ~align:Hb_util.Table.[ Left; Right ]
    (List.map
       (fun (name, value) -> [ name; string_of_int value ])
       (List.sort compare snap.Hb_util.Telemetry.counters));
  Printf.printf "\nphase spans:\n";
  Hb_util.Table.print ~header:[ "span"; "count"; "wall s"; "cpu s" ]
    ~align:Hb_util.Table.[ Left; Right; Right; Right ]
    (List.map
       (fun (name, count, wall, cpu) ->
          [ name; string_of_int count;
            Printf.sprintf "%.4f" wall; Printf.sprintf "%.4f" cpu ])
       (Hb_util.Telemetry.aggregate_spans snap));
  (* The instrumentation has to actually count: a silently dead counter
     is a regression even when the timings look fine. *)
  let counter name =
    match List.assoc_opt name snap.Hb_util.Telemetry.counters with
    | Some v -> v
    | None -> 0
  in
  List.iter
    (fun name ->
       if counter name <= 0 then
         failwith (Printf.sprintf "P3: counter %s never incremented" name))
    [ "algorithm1.relaxation_iterations";
      "algorithm1.complete_forward_transfers";
      "slacks.block_evaluations";
      "paths.states_expanded";
      "paths.heap_pushes";
      "serve.requests";
      "serve.errors";
      "session.analyses" ];
  (* Same hard-fail for the newer instrumentation layers: a renamed
     histogram or log site must not go silently dark. *)
  Printf.printf "\nhistograms:\n";
  Hb_util.Table.print ~header:[ "histogram"; "count"; "sum" ]
    ~align:Hb_util.Table.[ Left; Right; Right ]
    (List.map
       (fun (h : Hb_util.Telemetry.histogram_snapshot) ->
          [ h.Hb_util.Telemetry.h_name;
            string_of_int h.Hb_util.Telemetry.total;
            Printf.sprintf "%.4f" h.Hb_util.Telemetry.sum ])
       snap.Hb_util.Telemetry.histograms);
  let histogram_total name =
    match
      List.find_opt
        (fun (h : Hb_util.Telemetry.histogram_snapshot) ->
           h.Hb_util.Telemetry.h_name = name)
        snap.Hb_util.Telemetry.histograms
    with
    | Some h -> h.Hb_util.Telemetry.total
    | None -> 0
  in
  List.iter
    (fun name ->
       if histogram_total name <= 0 then
         failwith (Printf.sprintf "P3: histogram %s never observed" name))
    [ "serve.request_seconds";
      "serve.clusters_evaluated";
      "serve.paths_enumerated" ];
  let log_count site =
    match List.assoc_opt site log_sites with Some n -> n | None -> 0
  in
  List.iter
    (fun site ->
       if log_count site <= 0 then
         failwith (Printf.sprintf "P3: log site %s never emitted" site))
    [ "serve.request"; "session.create"; "session.analyse"; "session.apply" ];
  let out = Buffer.create 4096 in
  Printf.bprintf out
    "{\n  \"benchmark\": \"telemetry\",\n  \"design\": \"DES\",\n  \
     \"off_s\": %.6f,\n  \"on_s\": %.6f,\n  \"overhead_pct\": %.2f,\n  \
     \"disabled_counter_ns\": %.2f,\n  \"disabled_histogram_ns\": %.2f,\n  \
     \"disabled_log_ns\": %.2f,\n  \"counters\": {"
    off_s on_s overhead_pct counter_ns observe_ns log_ns;
  List.iteri
    (fun i (name, value) ->
       Printf.bprintf out "%s\n    \"%s\": %d"
         (if i = 0 then "" else ",") name value)
    (List.sort compare snap.Hb_util.Telemetry.counters);
  Printf.bprintf out "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i (h : Hb_util.Telemetry.histogram_snapshot) ->
       Printf.bprintf out "%s\n    \"%s\": {\"count\": %d, \"sum\": %.6f}"
         (if i = 0 then "" else ",")
         h.Hb_util.Telemetry.h_name h.Hb_util.Telemetry.total
         h.Hb_util.Telemetry.sum)
    snap.Hb_util.Telemetry.histograms;
  Printf.bprintf out "\n  },\n  \"log_sites\": {";
  List.iteri
    (fun i (site, n) ->
       Printf.bprintf out "%s\n    \"%s\": %d" (if i = 0 then "" else ",")
         site n)
    log_sites;
  Printf.bprintf out "\n  }\n}\n";
  write_file_atomic "BENCH_telemetry.json" (Buffer.contents out);
  Printf.printf "\nwrote BENCH_telemetry.json\n";
  (* Optional Chrome trace of the instrumented runs: --trace FILE. *)
  (match argv_value "--trace" with
   | Some path ->
     write_file_atomic path (Hb_util.Telemetry.trace_json snap);
     Printf.printf "wrote %s\n" path
   | None -> ());
  (* Leave the registry as the later sections expect it: off and empty. *)
  Hb_util.Telemetry.set_enabled false;
  Hb_util.Telemetry.reset ()

(* ------------------------------------------------------------------ *)
(* P4 — session engine: what-if query throughput                      *)
(* ------------------------------------------------------------------ *)

let session_bench () =
  section "P4: session engine — N-query what-if throughput";
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
  let probe = Hb_sta.Session.create ~design ~system () in
  let instance =
    let path =
      match Hb_sta.Session.worst_paths probe ~limit:1 with
      | path :: _ -> path
      | [] -> failwith "P4: no paths on DES"
    in
    let inst =
      List.find_map (fun (hop : Hb_sta.Paths.hop) -> hop.Hb_sta.Paths.via)
        path.Hb_sta.Paths.hops
    in
    match inst with
    | Some inst ->
      (Hb_netlist.Design.instance design inst).Hb_netlist.Design.inst_name
    | None -> failwith "P4: worst path has no combinational hop"
  in
  Hb_sta.Session.close probe;
  let factor i = 0.85 +. (0.015 *. float_of_int i) in
  let worst (report : Hb_sta.Engine.report) =
    report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst
  in
  (* One-shot: full preprocess per query, the seed's only option. *)
  let one_shot_slacks = Array.make queries 0.0 in
  let one_shot_sweep () =
    for i = 0 to queries - 1 do
      let annotation =
        Hb_sta.Annotation.of_entries
          [ (instance, Hb_sta.Annotation.Scaled (factor i)) ]
      in
      let delays =
        Hb_sta.Annotation.apply annotation ~base:Hb_sta.Delays.lumped
      in
      let report =
        Hb_sta.Engine.analyse ~design ~system ~delays
          ~generate_constraints:false ~check_hold:false ()
      in
      one_shot_slacks.(i) <- worst report
    done
  in
  let one_shot_s = measure ~repeat:3 one_shot_sweep in
  (* Session: one preprocess, then mutate-and-query. *)
  let session = Hb_sta.Session.create ~design ~system () in
  let session_slacks = Array.make queries 0.0 in
  let session_sweep () =
    for i = 0 to queries - 1 do
      let _ : Hb_sta.Session.apply_result =
        Hb_sta.Session.apply session
          [ Hb_sta.Edit.Scale_delay { instance; factor = factor i } ]
      in
      let report =
        Hb_sta.Session.analyse ~generate_constraints:false ~check_hold:false
          session
      in
      session_slacks.(i) <- worst report
    done
  in
  let session_s = measure ~repeat:3 session_sweep in
  Hb_sta.Session.close session;
  for i = 0 to queries - 1 do
    if not (Hb_util.Time.equal one_shot_slacks.(i) session_slacks.(i)) then
      failwith
        (Printf.sprintf
           "P4: query %d: session slack %g != one-shot slack %g" i
           session_slacks.(i) one_shot_slacks.(i))
  done;
  let speedup = one_shot_s /. Stdlib.max 1e-9 session_s in
  Hb_util.Table.print
    ~header:
      [ "design"; "queries"; "edited instance"; "one-shot s"; "session s";
        "speedup" ]
    ~align:Hb_util.Table.[ Left; Right; Left; Right; Right; Right ]
    [ [ "DES"; string_of_int queries; instance;
        Printf.sprintf "%.4f" one_shot_s;
        Printf.sprintf "%.4f" session_s;
        Printf.sprintf "%.1fx" speedup ] ];
  let out = Buffer.create 4096 in
  Printf.bprintf out
    "{\n  \"benchmark\": \"session\",\n  \"design\": \"DES\",\n  \
     \"queries\": %d,\n  \"instance\": \"%s\",\n  \
     \"one_shot_s\": %.6f,\n  \"session_s\": %.6f,\n  \
     \"speedup\": %.2f\n}\n"
    queries instance one_shot_s session_s speedup;
  write_file_atomic "BENCH_session.json" (Buffer.contents out);
  Printf.printf "\nwrote BENCH_session.json\n";
  (* The acceptance bar: a persistent session must beat rebuilding the
     engine per query by a wide margin, or the subsystem is pointless. *)
  if speedup < 3.0 then
    failwith
      (Printf.sprintf "P4: session speedup %.2fx is below the 3x bar" speedup)

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
  section "P5: snapshot — warm start vs cold start";
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
  (* Reference session: pays the cold start once, donates the snapshot
     and the parity report. *)
  let reference = Hb_sta.Session.create ~design ~system () in
  let cold_report = analyse reference in
  Hb_sta.Session.save_snapshot reference ~path:snap_path;
  Hb_sta.Session.close reference;
  let snap_bytes = (Unix.stat snap_path).Unix.st_size in
  let cold_s =
    measure ~repeat:3 (fun () ->
        let s = Hb_sta.Session.create ~design ~system () in
        ignore (analyse s : Hb_sta.Session.report);
        Hb_sta.Session.close s)
  in
  let warm_s =
    measure ~repeat:3 (fun () ->
        let s = Hb_sta.Session.of_snapshot ~path:snap_path in
        ignore (analyse s : Hb_sta.Session.report);
        Hb_sta.Session.close s)
  in
  (* Parity is part of the measurement: the restored session's analysis
     must be bit-identical to the cold one, every element. *)
  let restored = Hb_sta.Session.of_snapshot ~path:snap_path in
  let warm_report = analyse restored in
  let slacks (r : Hb_sta.Engine.report) =
    r.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final
  in
  let cs = slacks cold_report and ws = slacks warm_report in
  if
    Int64.bits_of_float cs.Hb_sta.Slacks.worst
    <> Int64.bits_of_float ws.Hb_sta.Slacks.worst
  then
    failwith
      (Printf.sprintf "P5: restored worst %h != cold worst %h"
         ws.Hb_sta.Slacks.worst cs.Hb_sta.Slacks.worst);
  Array.iteri
    (fun e cold_slack ->
       if
         Int64.bits_of_float cold_slack
         <> Int64.bits_of_float ws.Hb_sta.Slacks.element_input_slack.(e)
       then
         failwith
           (Printf.sprintf
              "P5: element %d slack diverges after restore (warm %h, cold %h)"
              e ws.Hb_sta.Slacks.element_input_slack.(e) cold_slack))
    cs.Hb_sta.Slacks.element_input_slack;
  (* ECO micro-measurement: upsize a few worst-path gates on the warm
     session and re-analyse — the per-edit cost of a restored what-if
     loop (targeted cluster rebuild, not a fresh preprocess). *)
  let eco_edits =
    let targets =
      Hb_sta.Session.worst_paths restored ~limit:8
      |> List.concat_map (fun (p : Hb_sta.Paths.path) -> p.Hb_sta.Paths.hops)
      |> List.filter_map (fun (hop : Hb_sta.Paths.hop) -> hop.Hb_sta.Paths.via)
      |> List.sort_uniq compare
    in
    let edited_design = (Hb_sta.Session.context restored).Hb_sta.Context.design in
    List.filter_map
      (fun i ->
         let inst = Hb_netlist.Design.instance edited_design i in
         match Hb_cell.Library.upsize lib inst.Hb_netlist.Design.cell with
         | Some bigger ->
           Some
             (Hb_sta.Edit.Resize_gate
                { instance = inst.Hb_netlist.Design.inst_name; cell = bigger })
         | None -> None)
      targets
    |> fun edits -> List.filteri (fun i _ -> i < 4) edits
  in
  let eco_s, eco_rebuilt =
    match eco_edits with
    | [] -> (None, 0)
    | edits ->
      let rebuilt = ref 0 in
      let t0 = Unix.gettimeofday () in
      let result = Hb_sta.Session.apply restored edits in
      ignore (analyse restored : Hb_sta.Session.report);
      let dt = Unix.gettimeofday () -. t0 in
      rebuilt := result.Hb_sta.Session.clusters_rebuilt;
      (Some dt, !rebuilt)
  in
  Hb_sta.Session.close restored;
  Sys.remove snap_path;
  let speedup = cold_s /. Stdlib.max 1e-9 warm_s in
  Hb_util.Table.print
    ~header:
      [ "design"; "snapshot MB"; "cold s"; "warm s"; "speedup";
        "eco edits"; "eco s" ]
    ~align:
      Hb_util.Table.[ Left; Right; Right; Right; Right; Right; Right ]
    [ [ name;
        Printf.sprintf "%.1f" (float_of_int snap_bytes /. 1048576.0);
        Printf.sprintf "%.4f" cold_s;
        Printf.sprintf "%.4f" warm_s;
        Printf.sprintf "%.1fx" speedup;
        string_of_int (List.length eco_edits);
        (match eco_s with Some s -> Printf.sprintf "%.4f" s | None -> "-") ]
    ];
  let out = Buffer.create 1024 in
  Printf.bprintf out
    "{\n  \"benchmark\": \"snapshot\",\n  \"design\": \"%s\",\n  \
     \"snapshot_bytes\": %d,\n  \"cold_s\": %.6f,\n  \"warm_s\": %.6f,\n  \
     \"speedup\": %.2f,\n  \"parity\": \"bit_identical\",\n  \
     \"eco_edits\": %d,\n  \"eco_clusters_rebuilt\": %d,\n  \"eco_s\": %s\n}\n"
    name snap_bytes cold_s warm_s speedup (List.length eco_edits) eco_rebuilt
    (match eco_s with Some s -> Printf.sprintf "%.6f" s | None -> "null");
  write_file_atomic "BENCH_snapshot.json" (Buffer.contents out);
  Printf.printf "\nwrote BENCH_snapshot.json\n";
  (* The acceptance bar: at 100k cells a warm start must beat the cold
     start to first report by >= 10x. The smoke run checks parity only —
     a 10k cold start is too quick for a stable ratio. *)
  if (not smoke) && speedup < 10.0 then
    failwith
      (Printf.sprintf "P5: warm-start speedup %.2fx is below the 10x bar"
         speedup)

(* ------------------------------------------------------------------ *)
(* S2 — million-cell scale: macro vs flat relaxation                  *)
(* ------------------------------------------------------------------ *)

(* The tentpole measurement: on the tiled-Feistel scale designs, run
   Algorithm 1 with flat per-cluster re-evaluation and with hierarchical
   timing macros, assert the results are bit-identical, and require the
   macro path to win by >= 3x at the 100k preset. The 1M preset runs
   macro-only (a flat 1M sweep per relaxation iteration is exactly the
   cost this subsystem exists to avoid) and records wall time plus the
   process peak RSS. [smoke] keeps just the 10k preset — parity and
   plumbing, not the performance gate. *)
let scale_bench ?(smoke = false) () =
  section "S2: scale — hierarchical timing macros vs flat relaxation";
  let presets =
    if smoke then
      [ ("scale10k", (fun () -> Hb_workload.Scale.scale10k ()), `Both, 3) ]
    else
      [ ("scale10k", (fun () -> Hb_workload.Scale.scale10k ()), `Both, 3);
        ("scale100k", (fun () -> Hb_workload.Scale.scale100k ()), `Both, 3);
        ("scale1m", (fun () -> Hb_workload.Scale.scale1m ()), `Macro_only, 1);
      ]
  in
  let run_mode ~macro ~repeat ~design ~system =
    let config = { Hb_sta.Config.default with Hb_sta.Config.macro } in
    let ctx = Hb_sta.Context.make ~design ~system ~config () in
    let outcome = ref None in
    (* Cache and macro store are dropped each repeat, so every measured
       run pays extraction (macro) or a cold sweep (flat) — the honest
       one-shot comparison. *)
    let wall =
      measure ~repeat (fun () ->
          Hb_sta.Context.invalidate_cache ctx;
          Hb_sta.Elements.reset_offsets ctx.Hb_sta.Context.elements;
          outcome := Some (Hb_sta.Algorithm1.run ctx))
    in
    match !outcome with
    | Some outcome -> (wall, outcome, ctx)
    | None -> assert false
  in
  let results =
    List.map
      (fun (name, make, mode, repeat) ->
         let design, system = make () in
         let stats = Hb_netlist.Stats.compute design in
         let macro_s, macro_outcome, macro_ctx =
           run_mode ~macro:true ~repeat ~design ~system
         in
         let flat =
           match mode with
           | `Macro_only -> None
           | `Both -> Some (run_mode ~macro:false ~repeat ~design ~system)
         in
         (* Parity is part of the measurement, not a separate test: the
            macro run must reproduce the flat slacks bit-for-bit. *)
         (match flat with
          | None -> ()
          | Some (_, flat_outcome, _) ->
            let fs = flat_outcome.Hb_sta.Algorithm1.final in
            let ms = macro_outcome.Hb_sta.Algorithm1.final in
            if
              Int64.bits_of_float fs.Hb_sta.Slacks.worst
              <> Int64.bits_of_float ms.Hb_sta.Slacks.worst
            then
              failwith
                (Printf.sprintf "S2: %s: macro worst %h != flat worst %h"
                   name ms.Hb_sta.Slacks.worst fs.Hb_sta.Slacks.worst);
            Array.iteri
              (fun e flat_slack ->
                 if
                   Int64.bits_of_float flat_slack
                   <> Int64.bits_of_float
                       ms.Hb_sta.Slacks.element_input_slack.(e)
                 then
                   failwith
                     (Printf.sprintf
                        "S2: %s: element %d slack diverges (macro %h, flat %h)"
                        name e ms.Hb_sta.Slacks.element_input_slack.(e)
                        flat_slack))
              fs.Hb_sta.Slacks.element_input_slack);
         let clusters =
           Array.length macro_ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters
         in
         let rss = Hb_util.Rss.peak_bytes () in
         (name, stats, clusters, flat, macro_s, macro_outcome, rss))
      presets
  in
  Hb_util.Table.print
    ~header:
      [ "design"; "cells"; "clusters"; "cycles"; "flat s"; "macro s";
        "speedup"; "peak rss MB" ]
    ~align:
      Hb_util.Table.[ Left; Right; Right; Right; Right; Right; Right; Right ]
    (List.map
       (fun (name, stats, clusters, flat, macro_s, outcome, rss) ->
          [ name;
            string_of_int stats.Hb_netlist.Stats.cells;
            string_of_int clusters;
            Printf.sprintf "%d+%d" outcome.Hb_sta.Algorithm1.forward_cycles
              outcome.Hb_sta.Algorithm1.backward_cycles;
            (match flat with
             | Some (flat_s, _, _) -> Printf.sprintf "%.4f" flat_s
             | None -> "-");
            Printf.sprintf "%.4f" macro_s;
            (match flat with
             | Some (flat_s, _, _) ->
               Printf.sprintf "%.1fx" (flat_s /. Stdlib.max 1e-9 macro_s)
             | None -> "-");
            (match rss with
             | Some bytes ->
               Printf.sprintf "%.1f" (float_of_int bytes /. 1048576.0)
             | None -> "-") ])
       results);
  let out = Buffer.create 4096 in
  Printf.bprintf out "{\n  \"benchmark\": \"scale\",\n  \"presets\": [";
  List.iteri
    (fun i (name, (stats : Hb_netlist.Stats.t), clusters, flat, macro_s,
            outcome, rss) ->
       Printf.bprintf out
         "%s\n    {\"design\": \"%s\", \"cells\": %d, \"clusters\": %d, \
          \"forward_cycles\": %d, \"backward_cycles\": %d, \
          \"worst_slack\": %.6f, \"flat_s\": %s, \"macro_s\": %.6f, \
          \"speedup\": %s, \"parity\": %s, \"peak_rss_bytes\": %s}"
         (if i = 0 then "" else ",")
         name stats.Hb_netlist.Stats.cells clusters
         outcome.Hb_sta.Algorithm1.forward_cycles
         outcome.Hb_sta.Algorithm1.backward_cycles
         outcome.Hb_sta.Algorithm1.final.Hb_sta.Slacks.worst
         (match flat with
          | Some (flat_s, _, _) -> Printf.sprintf "%.6f" flat_s
          | None -> "null")
         macro_s
         (match flat with
          | Some (flat_s, _, _) ->
            Printf.sprintf "%.2f" (flat_s /. Stdlib.max 1e-9 macro_s)
          | None -> "null")
         (match flat with
          | Some _ -> "\"bit_identical\""
          | None -> "null")
         (match rss with Some b -> string_of_int b | None -> "null"))
    results;
  Printf.bprintf out "\n  ]\n}\n";
  write_file_atomic "BENCH_scale.json" (Buffer.contents out);
  Printf.printf "\nwrote BENCH_scale.json\n";
  (* The acceptance bar: at 100k cells, macro-level relaxation must beat
     flat by >= 3x (cold runs, extraction included). *)
  if not smoke then
    List.iter
      (fun (name, _, _, flat, macro_s, _, _) ->
         match (name, flat) with
         | "scale100k", Some (flat_s, _, _) ->
           let speedup = flat_s /. Stdlib.max 1e-9 macro_s in
           if speedup < 3.0 then
             failwith
               (Printf.sprintf
                  "S2: macro speedup %.2fx at 100k is below the 3x bar"
                  speedup)
         | _ -> ())
      results

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
   almost entirely inside their think time — a cached analyse read is
   microseconds — so aggregate throughput approaches 8x a single
   client. The bar is >= 3x; this measures request *interleaving* (the
   point of the scheduler), not CPU parallelism, so it holds on a
   one-core host.

   Phase B (reported, not gated): the same clients as zero-think
   what-if streams hammering the shared session with scale_delay +
   analyse; p50/p99 request latency interpolated from the
   serve.request_seconds histogram delta. *)
let serve_load_bench ?(smoke = false) () =
  section "S3: serve — concurrent multi-client throughput";
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
  Hb_util.Telemetry.reset ();
  Hb_util.Telemetry.set_enabled true;
  let daemon =
    Hb_sta.Serve.create
      ~generators:[ ("scale10k", fun () -> Hb_workload.Scale.scale10k ()) ]
      ()
  in
  let sched =
    Hb_sta.Serve.start_scheduler daemon ~workers:1 ~queue_capacity:256
  in
  let seq = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let rpc client ~meth params =
    let id = Atomic.fetch_and_add seq 1 + 1 in
    let fields =
      [ ("id", Hb_util.Json.Number (float_of_int id));
        ("method", Hb_util.Json.String meth) ]
      @ match params with [] -> [] | p -> [ ("params", Hb_util.Json.Obj p) ]
    in
    let reply =
      Hb_sta.Serve.submit sched client
        (Hb_util.Json.to_string (Hb_util.Json.Obj fields))
    in
    match Hb_util.Json.parse reply with
    | Hb_util.Json.Obj obj ->
      (match List.assoc_opt "status" obj with
       | Some (Hb_util.Json.String "ok") -> obj
       | _ -> failwith (Printf.sprintf "S3: %s failed: %s" meth reply))
    | _ -> failwith (Printf.sprintf "S3: unparseable reply: %s" reply)
  in
  (* A thread's uncaught exception dies with the thread, not the bench —
     count failures explicitly and fail after the joins. *)
  let guarded f () =
    try f () with
    | e ->
      Atomic.incr errors;
      Printf.eprintf "S3: client stream failed: %s\n%!" (Printexc.to_string e)
  in
  let check_streams phase =
    if Atomic.get errors > 0 then
      failwith (Printf.sprintf "S3: %s: a client stream failed" phase)
  in
  let load client =
    ignore
      (rpc client ~meth:"load"
         [ ("generator", Hb_util.Json.String "scale10k") ])
  in
  (* The read stream is [constraints]: once the session's constraint
     cache is warm it is answered under the read lock with a four-field
     reply — microseconds of service time, so one worker hides 8
     clients inside their think time. (A cached [analyse] would also
     work semantically, but its reply serializes the whole report —
     milliseconds of JSON per request — and the worker saturates.) *)
  let cached_read client = ignore (rpc client ~meth:"constraints" []) in
  let whatif_read client =
    ignore
      (rpc client ~meth:"analyse"
         [ ("constraints", Hb_util.Json.Bool false);
           ("hold", Hb_util.Json.Bool false) ])
  in
  (* Warm: the first load pays preprocessing, the first constraints
     call fills the caches; the other loads must hit the registry. *)
  let handles = Array.init clients (fun _ -> Hb_sta.Serve.client daemon) in
  load handles.(0);
  cached_read handles.(0);
  for i = 1 to clients - 1 do
    load handles.(i)
  done;
  let stream handle n () =
    for _ = 1 to n do
      Thread.delay think;
      cached_read handle
    done
  in
  (* Phase A, single client. *)
  let t0 = Unix.gettimeofday () in
  stream handles.(0) requests ();
  let single_s = Unix.gettimeofday () -. t0 in
  let single_rps = float_of_int requests /. Stdlib.max 1e-9 single_s in
  (* Phase A, all clients at once. *)
  let t0 = Unix.gettimeofday () in
  let threads =
    Array.map
      (fun h -> Thread.create (guarded (stream h requests)) ())
      handles
  in
  Array.iter Thread.join threads;
  let concurrent_s = Unix.gettimeofday () -. t0 in
  check_streams "phase A";
  let concurrent_rps =
    float_of_int (clients * requests) /. Stdlib.max 1e-9 concurrent_s
  in
  let speedup = concurrent_rps /. Stdlib.max 1e-9 single_rps in
  (* Phase B edit targets: combinational instances off the worst paths
     of a locally built scale10k (the daemon keys its session by the
     generator name; the local build only supplies instance names). *)
  let instances =
    let design, system = Hb_workload.Scale.scale10k () in
    let probe = Hb_sta.Session.create ~design ~system () in
    let names =
      Hb_sta.Session.worst_paths probe ~limit:64
      |> List.concat_map (fun (p : Hb_sta.Paths.path) -> p.Hb_sta.Paths.hops)
      |> List.filter_map (fun (hop : Hb_sta.Paths.hop) -> hop.Hb_sta.Paths.via)
      |> List.sort_uniq compare
      |> List.map (fun i ->
          (Hb_netlist.Design.instance design i).Hb_netlist.Design.inst_name)
    in
    Hb_sta.Session.close probe;
    match names with
    | [] -> failwith "S3: no combinational hops on scale10k worst paths"
    | names ->
      Array.init clients (fun i -> List.nth names (i mod List.length names))
  in
  let request_hist () =
    let snap = Hb_util.Telemetry.snapshot () in
    List.find_opt
      (fun (h : Hb_util.Telemetry.histogram_snapshot) ->
         h.Hb_util.Telemetry.h_name = "serve.request_seconds")
      snap.Hb_util.Telemetry.histograms
  in
  let before = request_hist () in
  let t0 = Unix.gettimeofday () in
  let threads =
    Array.mapi
      (fun i h ->
         Thread.create
           (guarded (fun () ->
                for k = 1 to whatif_iters do
                  ignore
                    (rpc h ~meth:"scale_delay"
                       [ ("instance", Hb_util.Json.String instances.(i));
                         ( "factor",
                           Hb_util.Json.Number
                             (0.9 +. (0.02 *. float_of_int ((i + k) mod 10)))
                         );
                       ]);
                  whatif_read h
                done))
           ())
      handles
  in
  Array.iter Thread.join threads;
  let whatif_s = Unix.gettimeofday () -. t0 in
  check_streams "phase B";
  let whatif_requests = clients * whatif_iters * 2 in
  let whatif_rps = float_of_int whatif_requests /. Stdlib.max 1e-9 whatif_s in
  let quantile q =
    match (before, request_hist ()) with
    | _, None -> None
    | before, Some a ->
      let counts =
        Array.mapi
          (fun i n ->
             match before with
             | Some b -> n - b.Hb_util.Telemetry.bucket_counts.(i)
             | None -> n)
          a.Hb_util.Telemetry.bucket_counts
      in
      Hb_util.Telemetry.quantile ~bounds:a.Hb_util.Telemetry.upper_bounds
        ~counts q
  in
  let p50 = quantile 0.5 in
  let p99 = quantile 0.99 in
  let final = Hb_util.Telemetry.snapshot () in
  let counter name =
    match List.assoc_opt name final.Hb_util.Telemetry.counters with
    | Some v -> v
    | None -> 0
  in
  let shared = counter "serve.sessions_shared" in
  Array.iter (fun h -> Hb_sta.Serve.release_client daemon h) handles;
  Hb_sta.Serve.stop_scheduler sched;
  Hb_sta.Serve.shutdown_sessions daemon;
  Hb_util.Telemetry.set_enabled false;
  Hb_util.Telemetry.reset ();
  let ms = function
    | Some s -> Printf.sprintf "%.3f" (s *. 1000.0)
    | None -> "-"
  in
  Hb_util.Table.print
    ~header:[ "phase"; "clients"; "requests"; "wall s"; "req/s"; "vs single" ]
    ~align:Hb_util.Table.[ Left; Right; Right; Right; Right; Right ]
    [ [ "A single"; "1"; string_of_int requests;
        Printf.sprintf "%.4f" single_s; Printf.sprintf "%.0f" single_rps;
        "1.0x" ];
      [ "A concurrent"; string_of_int clients;
        string_of_int (clients * requests);
        Printf.sprintf "%.4f" concurrent_s;
        Printf.sprintf "%.0f" concurrent_rps;
        Printf.sprintf "%.1fx" speedup ];
      [ "B what-if"; string_of_int clients; string_of_int whatif_requests;
        Printf.sprintf "%.4f" whatif_s; Printf.sprintf "%.0f" whatif_rps;
        "-" ] ];
  Printf.printf
    "\nshared-session loads: %d   request latency p50 %s ms, p99 %s ms\n"
    shared (ms p50) (ms p99);
  let out = Buffer.create 1024 in
  Printf.bprintf out
    "{\n  \"benchmark\": \"serve_load\",\n  \"design\": \"scale10k\",\n  \
     \"clients\": %d,\n  \"think_s\": %.4f,\n  \
     \"requests_per_client\": %d,\n  \"single_rps\": %.2f,\n  \
     \"concurrent_rps\": %.2f,\n  \"speedup\": %.2f,\n  \
     \"whatif_requests\": %d,\n  \"whatif_rps\": %.2f,\n  \
     \"p50_ms\": %s,\n  \"p99_ms\": %s,\n  \"sessions_shared\": %d\n}\n"
    clients think requests single_rps concurrent_rps speedup whatif_requests
    whatif_rps
    (match p50 with Some s -> Printf.sprintf "%.4f" (s *. 1000.0) | None -> "null")
    (match p99 with Some s -> Printf.sprintf "%.4f" (s *. 1000.0) | None -> "null")
    shared;
  write_file_atomic "BENCH_serve_load.json" (Buffer.contents out);
  Printf.printf "wrote BENCH_serve_load.json\n";
  (* The acceptance bars: N clients must beat one by >= 3x, and the
     registry must actually have shared the session. *)
  if speedup < 3.0 then
    failwith
      (Printf.sprintf
         "S3: concurrent throughput %.2fx single-client is below the 3x bar"
         speedup);
  if shared < clients - 1 then
    failwith
      (Printf.sprintf "S3: expected %d shared-session loads, telemetry saw %d"
         (clients - 1) shared)

(* ------------------------------------------------------------------ *)
(* O1: telemetry plane — windowed p99 + SLO burn under heavy load     *)
(* ------------------------------------------------------------------ *)

let monitor_bench ?(smoke = false) () =
  section "O1: monitor — windowed p99 under 128 zero-think streams";
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
  Hb_util.Telemetry.reset ();
  Hb_util.Telemetry.set_enabled true;
  let daemon =
    Hb_sta.Serve.create
      ~generators:[ ("scale10k", fun () -> Hb_workload.Scale.scale10k ()) ]
      ()
  in
  let workers = Stdlib.min 4 (Hb_util.Pool.recommended_jobs ()) in
  let sched =
    Hb_sta.Serve.start_scheduler daemon ~workers
      ~queue_capacity:(2 * streams)
  in
  let seq = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let rpc client ~meth params =
    let id = Atomic.fetch_and_add seq 1 + 1 in
    let fields =
      [ ("id", Hb_util.Json.Number (float_of_int id));
        ("method", Hb_util.Json.String meth) ]
      @ match params with [] -> [] | p -> [ ("params", Hb_util.Json.Obj p) ]
    in
    let reply =
      Hb_sta.Serve.submit sched client
        (Hb_util.Json.to_string (Hb_util.Json.Obj fields))
    in
    match Hb_util.Json.parse reply with
    | Hb_util.Json.Obj obj ->
      (match List.assoc_opt "status" obj with
       | Some (Hb_util.Json.String "ok") -> obj
       | _ -> failwith (Printf.sprintf "O1: %s failed: %s" meth reply))
    | _ -> failwith (Printf.sprintf "O1: unparseable reply: %s" reply)
  in
  let guarded f () =
    try f () with
    | e ->
      Atomic.incr errors;
      Printf.eprintf "O1: stream failed: %s\n%!" (Printexc.to_string e)
  in
  let load client =
    ignore
      (rpc client ~meth:"load"
         [ ("generator", Hb_util.Json.String "scale10k") ])
  in
  let cached_read client = ignore (rpc client ~meth:"constraints" []) in
  (* Warm before attaching the SLO tracker: the first load pays scale10k
     preprocessing (hundreds of ms) and must not land in the window the
     gate reads — operators attach budgets to steady state, not boot. *)
  let handles = Array.init streams (fun _ -> Hb_sta.Serve.client daemon) in
  load handles.(0);
  cached_read handles.(0);
  for i = 1 to streams - 1 do
    load handles.(i)
  done;
  let slo =
    Hb_sta.Serve.Slo.create ~p99_budget_ms ~error_budget ~slots:16
      ~slot_seconds:0.25 ()
  in
  Hb_sta.Serve.attach_slo daemon slo;
  let t0 = Unix.gettimeofday () in
  let threads =
    Array.map
      (fun h ->
         Thread.create
           (guarded (fun () ->
                for _ = 1 to requests do
                  cached_read h
                done))
           ())
      handles
  in
  Array.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  if Atomic.get errors > 0 then failwith "O1: a load stream failed";
  let status = Hb_sta.Serve.Slo.tick slo in
  (* Queue wait p99 from the histogram the per-request phase split
     feeds; any measurable load through a bounded queue must have
     recorded waits, so an empty histogram means the split is broken. *)
  let queue_p99_ms =
    let snap =
      Hb_util.Telemetry.read_histogram
        (Hb_util.Telemetry.histogram "serve.queue_wait_seconds")
    in
    if snap.Hb_util.Telemetry.total = 0 then
      failwith "O1: serve.queue_wait_seconds recorded nothing under load";
    match
      Hb_util.Telemetry.quantile
        ~bounds:snap.Hb_util.Telemetry.upper_bounds
        ~counts:snap.Hb_util.Telemetry.bucket_counts 0.99
    with
    | Some s -> s *. 1000.0
    | None -> 0.0
  in
  let total_requests = streams * requests in
  let rps = float_of_int total_requests /. Stdlib.max 1e-9 wall_s in
  Array.iter (fun h -> Hb_sta.Serve.release_client daemon h) handles;
  Hb_sta.Serve.stop_scheduler sched;
  Hb_sta.Serve.shutdown_sessions daemon;
  Hb_util.Telemetry.set_enabled false;
  Hb_util.Telemetry.reset ();
  let fopt = function
    | Some v -> Printf.sprintf "%.3f" v
    | None -> "-"
  in
  Hb_util.Table.print
    ~header:[ "metric"; "value" ]
    ~align:Hb_util.Table.[ Left; Right ]
    [ [ "streams x requests";
        Printf.sprintf "%d x %d" streams requests ];
      [ "workers"; string_of_int workers ];
      [ "wall s"; Printf.sprintf "%.4f" wall_s ];
      [ "req/s"; Printf.sprintf "%.0f" rps ];
      [ "window observations";
        string_of_int status.Hb_sta.Serve.Slo.observations ];
      [ "windowed p50 ms"; fopt status.Hb_sta.Serve.Slo.p50_ms ];
      [ "windowed p99 ms"; fopt status.Hb_sta.Serve.Slo.p99_ms ];
      [ "queue wait p99 ms"; Printf.sprintf "%.3f" queue_p99_ms ];
      [ "error rate"; fopt status.Hb_sta.Serve.Slo.error_rate ];
      [ "p99 burn"; fopt status.Hb_sta.Serve.Slo.p99_burn ];
      [ "error burn"; fopt status.Hb_sta.Serve.Slo.error_burn ] ];
  let jopt = function
    | Some v -> Printf.sprintf "%.4f" v
    | None -> "null"
  in
  let out = Buffer.create 1024 in
  Printf.bprintf out
    "{\n  \"benchmark\": \"monitor\",\n  \"design\": \"scale10k\",\n  \
     \"streams\": %d,\n  \"requests_per_stream\": %d,\n  \
     \"workers\": %d,\n  \"wall_s\": %.4f,\n  \"rps\": %.2f,\n  \
     \"window_observations\": %d,\n  \"p50_ms\": %s,\n  \
     \"p99_ms\": %s,\n  \"queue_wait_p99_ms\": %.4f,\n  \
     \"error_rate\": %s,\n  \"p99_budget_ms\": %.1f,\n  \
     \"error_budget\": %.3f,\n  \"p99_burn\": %s,\n  \
     \"error_burn\": %s,\n  \"breached\": %b\n}\n"
    streams requests workers wall_s rps
    status.Hb_sta.Serve.Slo.observations
    (jopt status.Hb_sta.Serve.Slo.p50_ms)
    (jopt status.Hb_sta.Serve.Slo.p99_ms)
    queue_p99_ms
    (jopt status.Hb_sta.Serve.Slo.error_rate)
    p99_budget_ms error_budget
    (jopt status.Hb_sta.Serve.Slo.p99_burn)
    (jopt status.Hb_sta.Serve.Slo.error_burn)
    status.Hb_sta.Serve.Slo.breached;
  write_file_atomic "BENCH_monitor.json" (Buffer.contents out);
  Printf.printf "\nwrote BENCH_monitor.json\n";
  (* The acceptance bar: the SLO gate itself. A breach here is a real
     regression in queue discipline or the cached-read fast path. *)
  if status.Hb_sta.Serve.Slo.observations < total_requests then
    failwith
      (Printf.sprintf
         "O1: window saw %d of %d requests — the rolling window dropped \
          live observations"
         status.Hb_sta.Serve.Slo.observations total_requests);
  if status.Hb_sta.Serve.Slo.breached then
    failwith
      (Printf.sprintf
         "O1: SLO breached — windowed p99 %s ms (budget %.0f), error rate \
          %s (budget %.2f)"
         (fopt status.Hb_sta.Serve.Slo.p99_ms)
         p99_budget_ms
         (fopt status.Hb_sta.Serve.Slo.error_rate)
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
  (* The daemon is started in the background by the caller — wait for
     the socket to accept rather than racing its bind. *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "load client: %s never came up" path);
      Thread.delay 0.1;
      wait ()
  in
  wait ();
  let failures = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let run_client id =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let rpc fields =
      output_string oc (Hb_util.Json.to_string (Hb_util.Json.Obj fields));
      output_char oc '\n';
      flush oc;
      let line = input_line ic in
      (match Hb_util.Json.parse line with
       | Hb_util.Json.Obj reply ->
         (match List.assoc_opt "status" reply with
          | Some (Hb_util.Json.String "ok") ->
            Atomic.incr completed
          | _ ->
            Atomic.incr failures;
            Printf.eprintf "client %d: error reply: %s\n%!" id line)
       | _ ->
         Atomic.incr failures;
         Printf.eprintf "client %d: unparseable reply: %s\n%!" id line
       | exception Hb_util.Json.Parse_error _ ->
         Atomic.incr failures;
         Printf.eprintf "client %d: unparseable reply: %s\n%!" id line)
    in
    rpc
      [ ("id", Hb_util.Json.Number 1.0);
        ("method", Hb_util.Json.String "load");
        ( "params",
          Hb_util.Json.Obj [ ("generator", Hb_util.Json.String "scale10k") ]
        );
      ];
    for i = 1 to requests do
      rpc
        [ ("id", Hb_util.Json.Number (float_of_int (i + 1)));
          ("method", Hb_util.Json.String "analyse");
          ( "params",
            Hb_util.Json.Obj
              [ ("constraints", Hb_util.Json.Bool false);
                ("hold", Hb_util.Json.Bool false);
              ] );
        ]
    done;
    close_out_noerr oc
  in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
             try run_client i with
             | e ->
               Atomic.incr failures;
               Printf.eprintf "client %d: %s\n%!" i (Printexc.to_string e))
          ())
  in
  List.iter Thread.join threads;
  Printf.printf
    "serve load client: %d clients x %d requests+load, %d ok, %d failures\n"
    clients requests (Atomic.get completed) (Atomic.get failures);
  exit (if Atomic.get failures > 0 then 1 else 0)

(* ------------------------------------------------------------------ *)
(* V1 — differential fuzz throughput                                  *)
(* ------------------------------------------------------------------ *)

(* Cost of one full differential pass (all six cross-checks) per fuzzed
   design, and a hard parity gate on the pinned regression seeds: any
   divergence fails the bench with the one-line repro, exactly like the
   P1/P2 engine-parity gates. *)
let fuzz_bench ?(smoke = false) () =
  section "V1: differential fuzz — checks per second";
  let seeds =
    Hb_workload.Fuzz.regression_seeds
    @ Hb_workload.Fuzz.seed_list ~base:0xC0FFEEL (if smoke then 8 else 64)
  in
  let elapsed = measure ~repeat:1 (fun () ->
      let outcome = Hb_workload.Fuzz.run seeds in
      (match outcome.Hb_workload.Fuzz.failures with
       | [] -> ()
       | f :: _ ->
         failwith
           (Printf.sprintf "V1: fuzz divergence (%s: %s) — repro: %s"
              f.Hb_workload.Fuzz.check f.Hb_workload.Fuzz.detail
              (Hb_workload.Fuzz.repro_command f)));
      outcome)
  in
  Printf.printf "%-28s %8s %14s\n" "batch" "seeds" "seeds/s";
  Printf.printf "%-28s %8d %14.1f\n"
    (if smoke then "regression + 8 derived" else "regression + 64 derived")
    (List.length seeds)
    (float_of_int (List.length seeds) /. elapsed);
  (* The sabotage detector itself: the injected invalidation
     off-by-one must be caught within the same seed batch. *)
  let sabotage = Hb_workload.Fuzz.run ~inject:true seeds in
  let caught =
    List.exists
      (fun f -> f.Hb_workload.Fuzz.check = "cache-coherence")
      sabotage.Hb_workload.Fuzz.failures
  in
  if not caught then
    failwith "V1: injected cache off-by-one escaped the fuzz batch";
  Printf.printf "injected off-by-one caught: yes (%d/%d seeds diverge)\n"
    (List.length sabotage.Hb_workload.Fuzz.failures)
    sabotage.Hb_workload.Fuzz.seeds_run

(* ------------------------------------------------------------------ *)
(* uB — bechamel micro-benchmarks                                     *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  section "uB: bechamel micro-benchmarks (ns per run)";
  let open Bechamel in
  let analysis_test name make =
    let design, system = make () in
    let ctx = Hb_sta.Context.make ~design ~system () in
    Test.make ~name
      (Staged.stage (fun () ->
           Hb_sta.Elements.reset_offsets ctx.Hb_sta.Context.elements;
           ignore (Hb_sta.Algorithm1.run ctx)))
  in
  let preprocess_test name make =
    let design, system = make () in
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Hb_sta.Context.make ~design ~system ())))
  in
  let block_vs_enum =
    let design, system =
      Hb_workload.Pipelines.two_phase ~width:6 ~stages:4 ~gates_per_stage:60 ()
    in
    let ctx = Hb_sta.Context.make ~design ~system () in
    [ Test.make ~name:"A1/block"
        (Staged.stage (fun () -> ignore (Hb_sta.Slacks.compute ctx)));
      Test.make ~name:"A1/enumeration"
        (Staged.stage (fun () ->
             ignore (Hb_sta.Reference.evaluate ctx)));
    ]
  in
  let tests =
    Test.make_grouped ~name:"hummingbird"
      ([ analysis_test "T1/analysis/des" (fun () -> Hb_workload.Chips.des ());
         analysis_test "T1/analysis/alu" (fun () -> Hb_workload.Chips.alu ());
         analysis_test "T1/analysis/sm1f" (fun () -> Hb_workload.Chips.sm1f ());
         analysis_test "T1/analysis/sm1h" (fun () -> Hb_workload.Chips.sm1h ());
         preprocess_test "T1/preprocess/des" (fun () -> Hb_workload.Chips.des ());
         preprocess_test "T1/preprocess/sm1h" (fun () -> Hb_workload.Chips.sm1h ());
         analysis_test "F1/figure1" (fun () -> Hb_workload.Figures.figure1 ());
       ]
       @ block_vs_enum)
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~stabilize:true ~quota:(Time.second 0.25) ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
       let estimate =
         match Analyze.OLS.estimates ols_result with
         | Some (e :: _) -> Printf.sprintf "%.0f" e
         | Some [] | None -> "-"
       in
       rows := [ name; estimate ] :: !rows)
    results;
  Hb_util.Table.print ~header:[ "benchmark"; "ns/run" ]
    ~align:Hb_util.Table.[ Left; Right ]
    (List.sort compare !rows)

let () =
  (match argv_value "--load-socket" with
   | Some path ->
     let int_arg name default =
       match argv_value name with
       | Some v -> (try int_of_string v with Failure _ -> default)
       | None -> default
     in
     serve_socket_client ~path ~clients:(int_arg "--clients" 8)
       ~requests:(int_arg "--requests" 20)
   | None -> ());
  Printf.printf
    "Hummingbird benchmark harness — reproduces the paper's evaluation\n\
     artefacts (Weiner & Sangiovanni-Vincentelli, DAC 1989).\n";
  if Array.exists (fun arg -> arg = "--smoke") Sys.argv then begin
    (* Fast smoke for `make check`: just the slack-engine comparison on
       the two smallest Table 1 designs. *)
    slack_engine
      ~designs:
        [ ("DES", fun () -> Hb_workload.Chips.des ());
          ("ALU", fun () -> Hb_workload.Chips.alu ()) ]
      ();
    path_engine
      ~designs:
        [ ( "DES-soup",
            fun () ->
              Hb_workload.Soup.random ~seed:7L ~phases:3 ~registers:4
                ~gates:3500 ~inputs:4 ~outputs:8 () ) ]
      ~ks:[ 10; 100 ] ();
    telemetry_bench ();
    session_bench ();
    snapshot_bench ~smoke:true ();
    scale_bench ~smoke:true ();
    serve_load_bench ~smoke:true ();
    monitor_bench ~smoke:true ();
    fuzz_bench ~smoke:true ();
    print_newline ()
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
    snapshot_bench ();
    scale_bench ();
    serve_load_bench ();
    monitor_bench ();
    fuzz_bench ();
    bechamel_suite ();
    print_newline ()
  end
