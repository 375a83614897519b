(* The incremental + parallel slack engine and its supporting
   infrastructure (domain pool, buffer arena, element version counters).

   The engine's contract is exact: caching and parallelism must be
   bit-for-bit invisible. The properties here therefore compare with
   [Float.compare] equality, not a tolerance. *)

let eq_time x y =
  (* nan = nan (unconstrained nets record nan ready/required times). *)
  Float.compare x y = 0

let eq_array xs ys =
  Array.length xs = Array.length ys && Array.for_all2 eq_time xs ys

let same_slacks (a : Hb_sta.Slacks.t) (b : Hb_sta.Slacks.t) =
  eq_array a.Hb_sta.Slacks.element_input_slack b.Hb_sta.Slacks.element_input_slack
  && eq_array a.Hb_sta.Slacks.element_output_slack
       b.Hb_sta.Slacks.element_output_slack
  && eq_array a.Hb_sta.Slacks.net_slack b.Hb_sta.Slacks.net_slack
  && eq_array a.Hb_sta.Slacks.net_ready b.Hb_sta.Slacks.net_ready
  && eq_array a.Hb_sta.Slacks.net_required b.Hb_sta.Slacks.net_required
  && eq_time a.Hb_sta.Slacks.worst b.Hb_sta.Slacks.worst

let parallel_config =
  { Hb_sta.Config.default with
    Hb_sta.Config.incremental = true;
    parallel_jobs = 3 }

(* ------------------------------------------------------------------ *)
(* Engine parity properties                                           *)
(* ------------------------------------------------------------------ *)

let prop_engine_matches_sequential =
  (* Random soups, random element shift sequences: after every shift the
     incremental+parallel engine, a forced full recompute on the same
     cached context, and a from-scratch sequential context all agree
     exactly. *)
  QCheck.Test.make ~name:"engine: incremental+parallel = sequential" ~count:20
    QCheck.(
      triple (int_range 1 100_000) (int_range 1 4)
        (list_of_size (Gen.int_range 0 12)
           (pair (int_range 0 1_000) (int_range (-80) 80))))
    (fun (seed, phases, shifts) ->
       let design, system =
         Hb_workload.Soup.random ~seed:(Int64.of_int seed) ~phases ()
       in
       let seq_ctx =
         Hb_sta.Context.make ~design ~system ~config:Hb_sta.Config.sequential ()
       in
       let par_ctx =
         Hb_sta.Context.make ~design ~system ~config:parallel_config ()
       in
       let count = Hb_sta.Elements.count seq_ctx.Hb_sta.Context.elements in
       let apply ctx (index, tenths) =
         Hb_sync.Element.shift
           (Hb_sta.Elements.element ctx.Hb_sta.Context.elements (index mod count))
           (float_of_int tenths /. 10.0)
       in
       let agree () =
         let reference = Hb_sta.Slacks.compute seq_ctx in
         let cached = Hb_sta.Slacks.compute par_ctx in
         let forced = Hb_sta.Slacks.compute ~force:true par_ctx in
         same_slacks reference cached && same_slacks reference forced
       in
       agree ()
       && List.for_all
            (fun op -> apply seq_ctx op; apply par_ctx op; agree ())
            shifts)

let prop_algorithm1_matches_sequential =
  (* Full Algorithm 1 runs converge to identical outcomes under both
     engines on random soups. *)
  QCheck.Test.make ~name:"engine: Algorithm 1 outcome unchanged" ~count:20
    QCheck.(pair (int_range 1 100_000) (int_range 1 4))
    (fun (seed, phases) ->
       let design, system =
         Hb_workload.Soup.random ~seed:(Int64.of_int seed) ~phases ()
       in
       let run config =
         let ctx = Hb_sta.Context.make ~design ~system ~config () in
         Hb_sta.Algorithm1.run ctx
       in
       let a = run Hb_sta.Config.sequential in
       let b = run parallel_config in
       a.Hb_sta.Algorithm1.status = b.Hb_sta.Algorithm1.status
       && a.Hb_sta.Algorithm1.forward_cycles = b.Hb_sta.Algorithm1.forward_cycles
       && a.Hb_sta.Algorithm1.backward_cycles
          = b.Hb_sta.Algorithm1.backward_cycles
       && same_slacks a.Hb_sta.Algorithm1.final b.Hb_sta.Algorithm1.final)

(* ------------------------------------------------------------------ *)
(* Table 1 chip regressions                                           *)
(* ------------------------------------------------------------------ *)

let test_chip_regression () =
  List.iter
    (fun (name, make) ->
       let design, system = make () in
       let run config =
         let ctx = Hb_sta.Context.make ~design ~system ~config () in
         Hb_sta.Algorithm1.run ctx
       in
       let reference = run Hb_sta.Config.sequential in
       let engine = run parallel_config in
       Alcotest.(check bool)
         (name ^ ": status") true
         (reference.Hb_sta.Algorithm1.status = engine.Hb_sta.Algorithm1.status);
       Alcotest.(check int)
         (name ^ ": forward cycles")
         reference.Hb_sta.Algorithm1.forward_cycles
         engine.Hb_sta.Algorithm1.forward_cycles;
       Alcotest.(check int)
         (name ^ ": backward cycles")
         reference.Hb_sta.Algorithm1.backward_cycles
         engine.Hb_sta.Algorithm1.backward_cycles;
       Alcotest.(check bool)
         (name ^ ": slacks") true
         (same_slacks reference.Hb_sta.Algorithm1.final
            engine.Hb_sta.Algorithm1.final))
    [ ("DES", fun () -> Hb_workload.Chips.des ());
      ("ALU", fun () -> Hb_workload.Chips.alu ());
      ("SM1F", fun () -> Hb_workload.Chips.sm1f ());
      ("SM1H", fun () -> Hb_workload.Chips.sm1h ());
    ]

(* ------------------------------------------------------------------ *)
(* Element versions                                                   *)
(* ------------------------------------------------------------------ *)

let test_element_versions () =
  (* A latch pipeline: transparent latches have a non-degenerate offset
     window, so a small shift is effective (an edge flip-flop's window
     can be a single point, which must NOT bump the version). *)
  let design, system =
    Hb_workload.Pipelines.two_phase ~width:4 ~stages:2 ~gates_per_stage:20 ()
  in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let elements = ctx.Hb_sta.Context.elements in
  let clocked, initial =
    let found = ref None in
    for i = Hb_sta.Elements.count elements - 1 downto 0 do
      let e = Hb_sta.Elements.element elements i in
      if not (Hb_sync.Element.is_boundary e) then begin
        let before = Hb_sync.Element.o_dz e in
        Hb_sync.Element.shift e (-0.5);
        if Hb_sync.Element.o_dz e = before then Hb_sync.Element.shift e 0.5;
        if Hb_sync.Element.o_dz e <> before then found := Some (e, before)
        else Hb_sync.Element.reset e
      end
    done;
    match !found with
    | Some pair -> pair
    | None -> Alcotest.fail "no element with a movable offset"
  in
  let v0 = Hb_sync.Element.version clocked in
  (* Halfway back toward the initial offset: both endpoints are attainable
     values of the (convex) window, so the shift is guaranteed effective. *)
  Hb_sync.Element.shift clocked ((initial -. Hb_sync.Element.o_dz clocked) /. 2.0);
  Alcotest.(check bool) "effective shift bumps" true
    (Hb_sync.Element.version clocked > v0);
  let v1 = Hb_sync.Element.version clocked in
  Hb_sync.Element.shift clocked 0.0;
  Alcotest.(check int) "zero shift is free" v1 (Hb_sync.Element.version clocked);
  Hb_sync.Element.reset clocked;
  Alcotest.(check bool) "reset to a different offset bumps" true
    (Hb_sync.Element.version clocked > v1);
  let boundary = Hb_sta.Elements.element elements 0 in
  if Hb_sync.Element.is_boundary boundary then begin
    let vb = Hb_sync.Element.version boundary in
    Hb_sync.Element.shift boundary 1.0;
    Alcotest.(check int) "boundary never moves" vb
      (Hb_sync.Element.version boundary)
  end

(* ------------------------------------------------------------------ *)
(* Element-only snapshots and the boundary-time tables                *)
(* ------------------------------------------------------------------ *)

let seed_designs =
  [ ("des", fun () -> Hb_workload.Chips.des ());
    ("alu", fun () -> Hb_workload.Chips.alu ());
    ("sm1f", fun () -> Hb_workload.Chips.sm1f ());
    ("sm1h", fun () -> Hb_workload.Chips.sm1h ());
    ("dsp", fun () -> Hb_workload.Chips.dsp ());
    ("figure1", fun () -> Hb_workload.Figures.figure1 ());
    ("feistel_small",
     fun () ->
       Hb_workload.Scale.feistel ~name:"feistel_small" ~tiles:2 ~stages:4
         ~slow_depth:20 ());
  ]

let snapshot_configs =
  [ ("flat", { Hb_sta.Config.default with Hb_sta.Config.parallel_jobs = 1 });
    ("macro",
     { Hb_sta.Config.default with
       Hb_sta.Config.macro = true; parallel_jobs = 1 });
    ("rise/fall",
     { Hb_sta.Config.default with
       Hb_sta.Config.rise_fall = true; parallel_jobs = 1 });
    ("sequential", Hb_sta.Config.sequential);
    ("parallel", parallel_config);
  ]

let check_bits label expected got =
  if Int64.bits_of_float expected <> Int64.bits_of_float got then
    Alcotest.failf "%s: expected %h, got %h" label expected got

let check_bit_array label expected got =
  Alcotest.(check int) (label ^ " length") (Array.length expected)
    (Array.length got);
  Array.iteri
    (fun i x -> check_bits (Printf.sprintf "%s.(%d)" label i) x got.(i))
    expected

(* [count] random shifts of random elements, of up to 8 ns either way. *)
let random_shifts rng (ctx : Hb_sta.Context.t) ~count =
  let elements = ctx.Hb_sta.Context.elements in
  let n = Hb_sta.Elements.count elements in
  for _ = 1 to count do
    let e = Hb_sta.Elements.element elements (Hb_util.Rng.int rng n) in
    Hb_sync.Element.shift e (Hb_util.Rng.float rng 16.0 -. 8.0)
  done

let test_snapshot_parity () =
  List.iter
    (fun (design_name, build) ->
       let design, system = build () in
       List.iter
         (fun (config_name, config) ->
            let label = design_name ^ "/" ^ config_name in
            let ctx = Hb_sta.Context.make ~design ~system ~config () in
            let n = Hb_sta.Elements.count ctx.Hb_sta.Context.elements in
            let input_slack = Array.make n 0.0 in
            let output_slack = Array.make n 0.0 in
            let rng = Hb_util.Rng.create 13L in
            for round = 0 to 5 do
              if round > 0 then random_shifts rng ctx ~count:(1 + (n / 4));
              List.iter
                (fun (kind, snapshot) ->
                   let snap : Hb_sta.Slacks.t =
                     snapshot ctx ~input_slack ~output_slack
                   in
                   let full = Hb_sta.Slacks.compute ctx in
                   let l = Printf.sprintf "%s round %d %s" label round kind in
                   Alcotest.(check bool) (l ^ ": writes the buffers") true
                     (snap.Hb_sta.Slacks.element_input_slack == input_slack
                      && snap.Hb_sta.Slacks.element_output_slack
                         == output_slack);
                   Alcotest.(check int) (l ^ ": no net arrays") 0
                     (Array.length snap.Hb_sta.Slacks.net_slack);
                   check_bit_array (l ^ " input slacks")
                     full.Hb_sta.Slacks.element_input_slack input_slack;
                   check_bit_array (l ^ " output slacks")
                     full.Hb_sta.Slacks.element_output_slack output_slack;
                   check_bits (l ^ " worst") full.Hb_sta.Slacks.worst
                     snap.Hb_sta.Slacks.worst)
                [ ("transfer", Hb_sta.Slacks.compute_transfer);
                  ("elements", Hb_sta.Slacks.compute_elements) ]
            done)
         snapshot_configs)
    seed_designs

(* Algorithm 2's snatch loops read element-only snapshots and exit
   through one full compute; its recorded times must not depend on the
   engine configuration. *)
let test_algorithm2_across_configs () =
  List.iter
    (fun (design_name, build) ->
       let design, system = build () in
       let run config =
         let ctx = Hb_sta.Context.make ~design ~system ~config () in
         let outcome = Hb_sta.Algorithm1.run ctx in
         (outcome, Hb_sta.Algorithm2.run ctx)
       in
       List.iter
         (fun (config_name, config) ->
            (* The paper's from-scratch engine with the same arrival
               model. *)
            let reference, ref_times =
              run
                { config with
                  Hb_sta.Config.incremental = false; parallel_jobs = 1;
                  macro = false }
            in
            let outcome, times = run config in
            let l = design_name ^ "/" ^ config_name in
            (* Every phase snapshots and snatches at least once, and the
               counts report the cycles the loops actually ran. *)
            Alcotest.(check bool) (l ^ " snatch cycles counted") true
              (ref_times.Hb_sta.Algorithm2.snatch_backward_cycles >= 1
               && ref_times.Hb_sta.Algorithm2.snatch_forward_cycles >= 1);
            Alcotest.(check int) (l ^ " forward cycles")
              reference.Hb_sta.Algorithm1.forward_cycles
              outcome.Hb_sta.Algorithm1.forward_cycles;
            Alcotest.(check int) (l ^ " backward cycles")
              reference.Hb_sta.Algorithm1.backward_cycles
              outcome.Hb_sta.Algorithm1.backward_cycles;
            Alcotest.(check int) (l ^ " backward snatch cycles")
              ref_times.Hb_sta.Algorithm2.snatch_backward_cycles
              times.Hb_sta.Algorithm2.snatch_backward_cycles;
            Alcotest.(check int) (l ^ " forward snatch cycles")
              ref_times.Hb_sta.Algorithm2.snatch_forward_cycles
              times.Hb_sta.Algorithm2.snatch_forward_cycles;
            check_bit_array (l ^ " ready") ref_times.Hb_sta.Algorithm2.ready
              times.Hb_sta.Algorithm2.ready;
            check_bit_array (l ^ " required")
              ref_times.Hb_sta.Algorithm2.required
              times.Hb_sta.Algorithm2.required;
            check_bit_array (l ^ " net slack")
              ref_times.Hb_sta.Algorithm2.net_slack
              times.Hb_sta.Algorithm2.net_slack)
         snapshot_configs)
    seed_designs

let test_one_off_block_matches_cache () =
  List.iter
    (fun (design_name, build) ->
       let design, system = build () in
       List.iter
         (fun (mode_name, rise_fall) ->
            let config =
              { Hb_sta.Config.default with
                Hb_sta.Config.rise_fall; parallel_jobs = 1 }
            in
            let ctx = Hb_sta.Context.make ~design ~system ~config () in
            let mode : Hb_sta.Block.mode =
              if rise_fall then `Rise_fall else `Scalar
            in
            let rng = Hb_util.Rng.create 29L in
            let n = Hb_sta.Elements.count ctx.Hb_sta.Context.elements in
            random_shifts rng ctx ~count:(1 + (n / 3));
            ignore (Hb_sta.Slacks.compute ctx : Hb_sta.Slacks.t);
            let cache = Hb_sta.Context.cache ctx ~mode in
            let passes = ctx.Hb_sta.Context.passes in
            Array.iter
              (fun (cluster : Hb_sta.Cluster.t) ->
                 let id = cluster.Hb_sta.Cluster.id in
                 List.iteri
                   (fun cut_index cut ->
                      let cached =
                        match cache.Hb_sta.Context.results.(id).(cut_index) with
                        | Some r -> r
                        | None -> Alcotest.fail "cache row missing"
                      in
                      let fresh =
                        Hb_sta.Block.evaluate ~passes
                          ~elements:ctx.Hb_sta.Context.elements ~cluster ~cut
                          ~mode ()
                      in
                      let l =
                        Printf.sprintf "%s/%s cluster %d cut %d" design_name
                          mode_name id cut
                      in
                      check_bit_array (l ^ " ready") cached.Hb_sta.Block.ready
                        fresh.Hb_sta.Block.ready;
                      check_bit_array (l ^ " ready_rise")
                        cached.Hb_sta.Block.ready_rise
                        fresh.Hb_sta.Block.ready_rise;
                      check_bit_array (l ^ " ready_fall")
                        cached.Hb_sta.Block.ready_fall
                        fresh.Hb_sta.Block.ready_fall;
                      check_bit_array (l ^ " min_ready")
                        cached.Hb_sta.Block.min_ready
                        fresh.Hb_sta.Block.min_ready;
                      check_bit_array (l ^ " required")
                        cached.Hb_sta.Block.required
                        fresh.Hb_sta.Block.required)
                   passes.Hb_sta.Passes.plans.(id).Hb_sta.Passes.cuts)
              ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters)
         [ ("scalar", false); ("rise/fall", true) ])
    seed_designs

(* Every element's cached offsets against the Model formulas of its
   current state. *)
let check_cached_offsets label (ctx : Hb_sta.Context.t) =
  let elements = ctx.Hb_sta.Context.elements in
  for i = 0 to Hb_sta.Elements.count elements - 1 do
    let e = Hb_sta.Elements.element elements i in
    let assertion, closure, forward, backward =
      match e.Hb_sync.Element.detail with
      | Hb_sync.Element.Clocked { kind; params } ->
        let o_dz = e.Hb_sync.Element.offsets.Hb_sync.Element.o_dz in
        ( Hb_sync.Model.assertion_offset kind params ~o_dz,
          e.Hb_sync.Element.extra_closure_delay
          +. Hb_sync.Model.closure_offset kind params ~o_dz,
          Hb_sync.Model.forward_headroom kind params ~o_dz,
          Hb_sync.Model.backward_headroom kind params ~o_dz )
      | Hb_sync.Element.Fixed { assertion_offset; closure_offset } ->
        ( assertion_offset,
          e.Hb_sync.Element.extra_closure_delay +. closure_offset,
          0.0, 0.0 )
    in
    let o = e.Hb_sync.Element.offsets in
    let l = Printf.sprintf "%s %s" label e.Hb_sync.Element.label in
    check_bits (l ^ " assertion") assertion o.Hb_sync.Element.assertion;
    check_bits (l ^ " closure") closure o.Hb_sync.Element.closure;
    check_bits (l ^ " forward headroom") forward
      o.Hb_sync.Element.forward_headroom;
    check_bits (l ^ " backward headroom") backward
      o.Hb_sync.Element.backward_headroom
  done

(* Runs [write] and checks every element against the Model: a clocked
   element whose [target] was [Some v] (taken before the write) now holds
   [v] clamped into its interval, every other element kept its [o_dz],
   a version moved by one exactly when its [o_dz] changed, and the
   cached offsets are the formulas'. *)
let check_writes label (ctx : Hb_sta.Context.t) ~target write =
  let elements = ctx.Hb_sta.Context.elements in
  let n = Hb_sta.Elements.count elements in
  let element = Hb_sta.Elements.element elements in
  let before = Array.init n (fun i -> Hb_sync.Element.o_dz (element i)) in
  let versions = Array.init n (fun i -> Hb_sync.Element.version (element i)) in
  let targets = Array.init n target in
  write ();
  for i = 0 to n - 1 do
    let e = element i in
    let expected =
      match e.Hb_sync.Element.detail, targets.(i) with
      | Hb_sync.Element.Clocked { kind; params }, Some v ->
        Hb_util.Interval.clamp v (Hb_sync.Model.o_dz_interval kind params)
      | Hb_sync.Element.Clocked _, None | Hb_sync.Element.Fixed _, _ ->
        before.(i)
    in
    let l = Printf.sprintf "%s %s" label e.Hb_sync.Element.label in
    check_bits (l ^ " o_dz") expected (Hb_sync.Element.o_dz e);
    Alcotest.(check int) (l ^ " version")
      (if expected <> before.(i) then versions.(i) + 1 else versions.(i))
      (Hb_sync.Element.version e)
  done;
  check_cached_offsets label ctx

(* [Hb_sync.Element.shift_all] over amounts of every shape: the
   element's whole headroom (a complete transfer), half of it (a partial
   one), more than all of it (clamped at the interval's end), and
   amounts that are not positive. *)
let drive_shift_all label rng (ctx : Hb_sta.Context.t) ~forward =
  let all = ctx.Hb_sta.Context.elements.Hb_sta.Elements.all in
  let amounts =
    Array.map
      (fun e ->
         let headroom =
           if forward then Hb_sync.Element.forward_headroom e
           else Hb_sync.Element.backward_headroom e
         in
         match Hb_util.Rng.int rng 6 with
         | 0 -> headroom
         | 1 -> headroom /. 2.0
         | 2 -> headroom +. 3.0
         | 3 -> -1.0
         | 4 -> Hb_util.Time.eps /. 2.0
         | _ -> Hb_util.Rng.float rng 10.0)
      all
  in
  let moved = ref false in
  check_writes label ctx
    ~target:(fun i ->
        let amount = amounts.(i) in
        if Hb_util.Time.is_positive amount then
          Some
            (Hb_sync.Element.o_dz all.(i)
             +. (if forward then -.amount else amount))
        else None)
    (fun () -> moved := Hb_sync.Element.shift_all all amounts ~forward);
  Alcotest.(check bool) (label ^ " moved")
    (Array.exists Hb_util.Time.is_positive amounts) !moved

let offset_designs =
  seed_designs
  @ [ ("two_phase",
       fun () ->
         Hb_workload.Pipelines.two_phase ~width:4 ~stages:3
           ~gates_per_stage:12 ());
      ("edge_ff",
       fun () ->
         Hb_workload.Pipelines.edge_ff ~width:4 ~stages:3
           ~gates_per_stage:12 ());
      ("shared_bus",
       fun () -> Hb_workload.Buses.shared_bus ~sources:3 ~width:4 ());
    ]

let test_cached_offsets () =
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (design_name, build) ->
       let design, system = build () in
       let ctx = Hb_sta.Context.make ~design ~system () in
       let elements = ctx.Hb_sta.Context.elements in
       let n = Hb_sta.Elements.count elements in
       let element = Hb_sta.Elements.element elements in
       for i = 0 to n - 1 do
         Hashtbl.replace seen
           (match (element i).Hb_sync.Element.detail with
            | Hb_sync.Element.Clocked { kind; _ } -> `Clocked kind
            | Hb_sync.Element.Fixed _ -> `Boundary)
           ()
       done;
       let rng = Hb_util.Rng.create 41L in
       check_cached_offsets (design_name ^ " initial") ctx;
       let saved = Hb_sta.Elements.save_offsets elements in
       for round = 1 to 4 do
         let label = Printf.sprintf "%s round %d" design_name round in
         random_shifts rng ctx ~count:(1 + (n / 2));
         for _ = 1 to 1 + (n / 4) do
           let e = element (Hb_util.Rng.int rng n) in
           Hb_sync.Element.set_o_dz e (Hb_util.Rng.float rng 40.0 -. 30.0)
         done;
         for _ = 1 to 1 + (n / 8) do
           Hb_sync.Element.reset (element (Hb_util.Rng.int rng n))
         done;
         check_cached_offsets label ctx;
         drive_shift_all (label ^ " forward") rng ctx ~forward:true;
         drive_shift_all (label ^ " backward") rng ctx ~forward:false
       done;
       (* Offsets beyond both ends of every interval, through the restore
          loop. *)
       let wild = Array.init n (fun _ -> Hb_util.Rng.float rng 60.0 -. 40.0) in
       check_writes (design_name ^ " restored out of range") ctx
         ~target:(fun i -> Some wild.(i))
         (fun () -> Hb_sta.Elements.restore_offsets elements wild);
       check_writes (design_name ^ " restored") ctx
         ~target:(fun i -> Some saved.(i))
         (fun () -> Hb_sta.Elements.restore_offsets elements saved);
       check_writes (design_name ^ " restored again") ctx
         ~target:(fun i -> Some saved.(i))
         (fun () -> Hb_sta.Elements.restore_offsets elements saved);
       random_shifts rng ctx ~count:(1 + (n / 2));
       check_writes (design_name ^ " reset") ctx
         ~target:(fun i ->
             match (element i).Hb_sync.Element.detail with
             | Hb_sync.Element.Clocked { kind; params } ->
               Some (Hb_sync.Model.initial_o_dz kind params)
             | Hb_sync.Element.Fixed _ -> None)
         (fun () -> Hb_sta.Elements.reset_offsets elements);
       Alcotest.(check bool) (design_name ^ " saved = reset") true
         (Hb_sta.Elements.save_offsets elements = saved))
    offset_designs;
  List.iter
    (fun (name, kind) ->
       Alcotest.(check bool) (name ^ " elements driven") true
         (Hashtbl.mem seen kind))
    [ ("transparent latch", `Clocked Hb_cell.Kind.Transparent_latch);
      ("tristate driver", `Clocked Hb_cell.Kind.Tristate_driver);
      ("edge flip-flop", `Clocked Hb_cell.Kind.Edge_ff);
      ("boundary", `Boundary) ]

(* A snapshot with nothing dirty allocates a constant amount, whatever
   the design size: a closure or a boxed float that slips back into the
   loops multiplies this by the cluster, terminal or net count. *)
let test_snapshot_allocation () =
  let design, system = Hb_workload.Scale.scale10k () in
  List.iter
    (fun (name, macro) ->
       let config =
         { Hb_sta.Config.default with Hb_sta.Config.macro; parallel_jobs = 1 }
       in
       let ctx = Hb_sta.Context.make ~design ~system ~config () in
       let n = Hb_sta.Elements.count ctx.Hb_sta.Context.elements in
       let input_slack = Array.make n 0.0 in
       let output_slack = Array.make n 0.0 in
       let snapshot () =
         ignore
           (Hb_sta.Slacks.compute_transfer ctx ~input_slack ~output_slack
            : Hb_sta.Slacks.t)
       in
       (* Warm-up: fills the cluster cache, or extracts the macros. *)
       snapshot ();
       snapshot ();
       let before = Gc.minor_words () in
       snapshot ();
       let words = Gc.minor_words () -. before in
       if words >= 1000.0 then
         Alcotest.failf "%s: a nothing-dirty snapshot allocated %.0f minor words"
           name words)
    [ ("flat", false); ("macro", true) ]

(* ------------------------------------------------------------------ *)
(* Design-wide passes of an ECO round                                 *)
(* ------------------------------------------------------------------ *)

(* Minor words of one call after a warm-up call. Arrays past the
   minor-heap size limit go to the major heap and do not count: the
   budget catches what a pass allocates per element, input or pair. *)
let minor_words_of f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let scale10k_context () =
  let design, system = Hb_workload.Scale.scale10k () in
  let config = { Hb_sta.Config.default with Hb_sta.Config.parallel_jobs = 1 } in
  let ctx = Hb_sta.Context.make ~design ~system ~config () in
  ignore (Hb_sta.Slacks.compute ctx : Hb_sta.Slacks.t);
  ctx

(* The hold check allocates one key per endpoint and one grouping-table
   entry per connected input/output pair: about 37k minor words on
   scale10k. With a reachability walk, a fresh table and boxed times per
   input, as the check once had, it took 645k. *)
let test_holdcheck_allocation () =
  let ctx = scale10k_context () in
  let words =
    minor_words_of (fun () -> Hb_sta.Holdcheck.check ctx)
  in
  if words >= 60_000.0 then
    Alcotest.failf "Holdcheck.check allocated %.0f minor words" words

(* Committing a one-cluster structural edit rebuilds that cluster and
   keeps every other cluster's record, plan, cache row and incidence row:
   about 550 minor words on scale10k. Re-running extraction's
   union-find over the whole design, with its two lists of combinational
   instances, took it to 74k, and a union-find that builds two closures
   per find to 512k. *)
let test_apply_structural_allocation () =
  let ctx = scale10k_context () in
  let design = ctx.Hb_sta.Context.design in
  let words =
    minor_words_of (fun () ->
        Hb_sta.Context.apply_structural ctx ~design ~touched:[ 0 ] ())
  in
  if words >= 1_100.0 then
    Alcotest.failf "Context.apply_structural allocated %.0f minor words" words

(* Words a call allocates on every heap, counted as perfbench counts them
   (minor + major - promoted): an array past 256 words goes to the major
   heap directly, so minor words alone miss it. The calling domain's
   counts are read as they stand, and the minor heap is emptied first,
   so no earlier allocation is counted in the call. The minor part comes
   from [Gc.minor_words]: on OCaml 5.1.1 [Gc.counters] counts what the
   minor heap holds since its last collection at an eighth of its size,
   and [Gc.quick_stat] misread a call this short by tens of thousands of
   words. *)
let words_of f =
  let count () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  Gc.minor ();
  let before = count () in
  ignore (Sys.opaque_identity (f ()));
  count () -. before

(* A 4-gate resize batch through [Session.apply] on scale10k, the gates
   picked as perfbench's scale100k-eco picks them (the first 4 upsizable
   ones, by name, on the 8 worst paths), after a warm-up batch: about
   44k words, most of them the batch's one copy of the instance and net
   arrays. A copy of both per edit, control marks recomputed per batch
   and a whole-design re-extraction took 271k words by a count that saw
   only an eighth of the minor heap's unflushed tail (that count reads
   26k for today's batch). *)
let test_session_apply_allocation () =
  let design, system = Hb_workload.Scale.scale10k () in
  let config = { Hb_sta.Config.default with Hb_sta.Config.parallel_jobs = 1 } in
  let library = Hb_cell.Library.default () in
  let session = Hb_sta.Session.create ~design ~system ~config () in
  let by_name (a : Hb_netlist.Design.instance) b =
    String.compare a.Hb_netlist.Design.inst_name b.Hb_netlist.Design.inst_name
  in
  let gates =
    Hb_sta.Session.worst_paths session ~limit:8
    |> List.concat_map (fun (p : Hb_sta.Paths.path) -> p.Hb_sta.Paths.hops)
    |> List.filter_map (fun (h : Hb_sta.Paths.hop) -> h.Hb_sta.Paths.via)
    |> List.map (Hb_netlist.Design.instance design)
    |> List.sort_uniq by_name
    |> List.filter_map (fun (inst : Hb_netlist.Design.instance) ->
        let cell = inst.Hb_netlist.Design.cell in
        Option.map
          (fun big -> (inst.Hb_netlist.Design.inst_name, cell, big))
          (Hb_cell.Library.upsize library cell))
    |> List.filteri (fun i _ -> i < 4)
  in
  Alcotest.(check int) "gates" 4 (List.length gates);
  let batch pick =
    List.map
      (fun (instance, small, big) ->
         Hb_sta.Edit.Resize_gate { instance; cell = pick (small, big) })
      gates
  in
  ignore (Hb_sta.Session.apply session (batch snd) : Hb_sta.Session.apply_result);
  let words = words_of (fun () -> Hb_sta.Session.apply session (batch fst)) in
  Hb_sta.Session.close session;
  if words >= 100_000.0 then
    Alcotest.failf "Session.apply of a 4-gate resize batch allocated %.0f words"
      words

(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

let analysed_scale10k () =
  let design, system = Hb_workload.Scale.scale10k () in
  let config = { Hb_sta.Config.default with Hb_sta.Config.parallel_jobs = 1 } in
  let session = Hb_sta.Session.create ~design ~system ~config () in
  let report = Hb_sta.Session.analyse session in
  Hb_sta.Session.close session;
  report

(* The report of an analysed scale10k session with its 5 worst paths is
   114,503 bytes. Appending every row into one buffer takes about 99k
   words: 46k are the buffer's doublings from 4,096 bytes and its final
   copy, the rest the endpoint sort, a boxed float and a short string
   per number and the paths. A per-cluster settling-time list added
   11.5k. Printing each row through [Printf.ksprintf] with a per-call
   escaper and sorting (label, slack) pairs took 544k. *)
let test_report_allocation () =
  let report = analysed_scale10k () in
  let words =
    words_of (fun () -> Hb_sta.Json_export.report ~paths:5 report)
  in
  if words >= 120_000.0 then
    Alcotest.failf "Json_export.report allocated %.0f words" words

(* Printing a large tree: the scale10k report parsed back into a
   [Json.t], whose compact text is about 71,780 bytes. Printing it takes
   about 60k words, and 236k with [Printf] numbers and a per-call
   escaper. *)
let test_reply_allocation () =
  let report = analysed_scale10k () in
  let result = Hb_util.Json.parse (Hb_sta.Json_export.report report) in
  let words = words_of (fun () -> Hb_util.Json.to_string result) in
  if words >= 100_000.0 then
    Alcotest.failf "Json.to_string allocated %.0f words" words

(* One served [analyse] reply on a loaded scale10k session whose
   analysis is cached, asked as the what-if workload asks it (no
   constraints, no hold check, no paths): about 71k words, more than
   half of them the reply buffer's doublings from 256 bytes and its
   final copy, most of the rest a few short strings and boxed floats per
   number. Rendering the pretty report, parsing it back into a [Json.t]
   and printing that inside the envelope took 352k. *)
let test_served_reply_allocation () =
  let daemon =
    Hb_sta.Serve.create
      ~generators:[ ("scale10k", fun () -> Hb_workload.Scale.scale10k ()) ]
      ()
  in
  let send line = Hb_sta.Serve.handle_line daemon line in
  ignore
    (send
       {|{"id":0,"method":"load","params":{"generator":"scale10k","jobs":1}}|}
     : string);
  let analyse =
    {|{"id":1,"method":"analyse","params":{"constraints":false,"hold":false}}|}
  in
  ignore (send analyse : string);
  let words = words_of (fun () -> send analyse) in
  Hb_sta.Serve.shutdown_sessions daemon;
  if words >= 150_000.0 then
    Alcotest.failf "a served analyse reply allocated %.0f words" words

(* ------------------------------------------------------------------ *)
(* Relaxation                                                         *)
(* ------------------------------------------------------------------ *)

(* Algorithm 1 moves the elements' offsets through the [Hb_sync] loops,
   which box nothing per element: after a warm-up run, restoring the
   offsets and running Algorithm 1 on scale10k takes about 640 minor
   words flat and 500 with macros. With the free offset boxed in the
   element record, as it once was, it took 1.11M. *)
let test_relaxation_allocation () =
  let design, system = Hb_workload.Scale.scale10k () in
  List.iter
    (fun (name, macro) ->
       let config =
         { Hb_sta.Config.default with Hb_sta.Config.macro; parallel_jobs = 1 }
       in
       let ctx = Hb_sta.Context.make ~design ~system ~config () in
       let elements = ctx.Hb_sta.Context.elements in
       let saved = Hb_sta.Elements.save_offsets elements in
       let words =
         minor_words_of (fun () ->
             Hb_sta.Elements.restore_offsets elements saved;
             Hb_sta.Algorithm1.run ctx)
       in
       if words >= 10_000.0 then
         Alcotest.failf
           "%s: restore + Algorithm 1 allocated %.0f minor words" name words)
    [ ("flat", false); ("macro", true) ]

(* ------------------------------------------------------------------ *)
(* Netlist front end and resident graph size                          *)
(* ------------------------------------------------------------------ *)

let scale10k_text () =
  let design, system = Hb_workload.Scale.scale10k () in
  (Hb_netlist.Hbn_format.write design, system)

(* Parsing scale10k's .hbn allocates about 8.4 MB, of which the design
   keeps 4.7. A line list, token lists and pending instance records took
   it to 23 MB; [Map]-based name tables in the builder, before that, to
   40 MB. *)
let test_parse_allocation () =
  let text, _ = scale10k_text () in
  let library = Hb_cell.Library.default () in
  let before = Gc.allocated_bytes () in
  let design = Hb_netlist.Hbn_format.parse ~library text in
  let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
  ignore (Sys.opaque_identity design);
  if mb >= 12.0 then Alcotest.failf "parsing scale10k allocated %.1f MB" mb

(* A context on the parsed scale10k design retains about 590k words of
   design and 321k of cluster table. A copy of the pin name per
   connection took the design to 654k; an arc record (three heap blocks)
   per arc beside the flat arrays took the table to 510k. *)
let test_retained_words () =
  let text, system = scale10k_text () in
  let design =
    Hb_netlist.Hbn_format.parse ~library:(Hb_cell.Library.default ()) text
  in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let words x = Obj.reachable_words (Obj.repr x) in
  let design_words = words ctx.Hb_sta.Context.design in
  let table_words = words ctx.Hb_sta.Context.table in
  if design_words >= 620_000 then
    Alcotest.failf "the design retains %d words" design_words;
  if table_words >= 400_000 then
    Alcotest.failf "the cluster table retains %d words" table_words

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_covers_all_indices () =
  let pool = Hb_util.Pool.create ~jobs:3 () in
  Fun.protect ~finally:(fun () -> Hb_util.Pool.shutdown pool) @@ fun () ->
  Alcotest.(check int) "jobs" 3 (Hb_util.Pool.jobs pool);
  let n = 1000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Hb_util.Pool.run pool ~count:n (fun i -> Atomic.incr hits.(i));
  Alcotest.(check bool) "every index exactly once" true
    (Array.for_all (fun a -> Atomic.get a = 1) hits);
  (* The pool is reusable across runs, including empty and single runs. *)
  Hb_util.Pool.run pool ~count:0 (fun _ -> Alcotest.fail "count=0 ran work");
  let solo = ref 0 in
  Hb_util.Pool.run pool ~count:1 (fun _ -> incr solo);
  Alcotest.(check int) "count=1 runs inline" 1 !solo;
  let again = Atomic.make 0 in
  Hb_util.Pool.run pool ~count:100 (fun _ -> Atomic.incr again);
  Alcotest.(check int) "second batch" 100 (Atomic.get again)

let test_pool_propagates_exceptions () =
  let pool = Hb_util.Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Hb_util.Pool.shutdown pool) @@ fun () ->
  let raised =
    try
      Hb_util.Pool.run pool ~count:50 (fun i ->
          if i = 25 then failwith "boom");
      false
    with Failure m -> m = "boom"
  in
  Alcotest.(check bool) "worker exception re-raised" true raised;
  (* The pool survives a failed run. *)
  let ok = Atomic.make 0 in
  Hb_util.Pool.run pool ~count:10 (fun _ -> Atomic.incr ok);
  Alcotest.(check int) "usable after failure" 10 (Atomic.get ok)

let test_pool_sequential () =
  let pool = Hb_util.Pool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Hb_util.Pool.shutdown pool) @@ fun () ->
  (* jobs=1 must run inline, in order, on the calling domain. *)
  let self = Domain.self () in
  let order = ref [] in
  Hb_util.Pool.run pool ~count:5 (fun i ->
      Alcotest.(check bool) "same domain" true (Domain.self () = self);
      order := i :: !order);
  Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_pool_shared () =
  let a = Hb_util.Pool.shared ~jobs:2 in
  let b = Hb_util.Pool.shared ~jobs:2 in
  Alcotest.(check bool) "same jobs reuses the pool" true (a == b);
  Alcotest.(check int) "shared size" 2 (Hb_util.Pool.jobs a);
  let resized = Hb_util.Pool.shared ~jobs:3 in
  Alcotest.(check int) "resized" 3 (Hb_util.Pool.jobs resized)

(* ------------------------------------------------------------------ *)
(* Arena                                                              *)
(* ------------------------------------------------------------------ *)

let test_arena_recycles () =
  let arena = Hb_util.Arena.create () in
  let first = Hb_util.Arena.floats arena 64 in
  Alcotest.(check int) "length" 64 (Array.length first);
  Alcotest.(check int) "one outstanding" 1 (Hb_util.Arena.outstanding arena);
  Hb_util.Arena.release arena first;
  Alcotest.(check int) "none outstanding" 0 (Hb_util.Arena.outstanding arena);
  let second = Hb_util.Arena.floats arena 64 in
  Alcotest.(check bool) "same buffer returned" true (first == second);
  let other = Hb_util.Arena.floats arena 32 in
  Alcotest.(check bool) "different length is a fresh buffer" true
    (Array.length other = 32 && not (Obj.repr other == Obj.repr second));
  Hb_util.Arena.release arena second;
  Hb_util.Arena.clear arena;
  let third = Hb_util.Arena.floats arena 64 in
  Alcotest.(check bool) "clear drops the free list" true (not (third == second))

(* Group names stay at most six characters long: Alcotest widens its label
   column to the longest group name and cuts test names that no longer fit
   in 80 columns, which renames them in the report. *)
let () =
  Alcotest.run "perf"
    [ ( "engine",
        [ QCheck_alcotest.to_alcotest prop_engine_matches_sequential;
          QCheck_alcotest.to_alcotest prop_algorithm1_matches_sequential;
          Alcotest.test_case "Table 1 chips: outcome unchanged" `Quick
            test_chip_regression;
          Alcotest.test_case "element version counters" `Quick
            test_element_versions;
        ] );
      ( "snaps",
        [ Alcotest.test_case "element-only snapshots = compute" `Quick
            test_snapshot_parity;
          Alcotest.test_case "Algorithm 2 across engine configs" `Quick
            test_algorithm2_across_configs;
          Alcotest.test_case "one-off block = cached row" `Quick
            test_one_off_block_matches_cache;
          Alcotest.test_case "cached offsets = Model formulas" `Quick
            test_cached_offsets;
          Alcotest.test_case "nothing-dirty snapshot allocation" `Quick
            test_snapshot_allocation;
        ] );
      ( "eco",
        [ Alcotest.test_case "hold check allocation" `Quick
            test_holdcheck_allocation;
          Alcotest.test_case "one-cluster commit allocation" `Quick
            test_apply_structural_allocation;
          Alcotest.test_case "resize batch allocation" `Quick
            test_session_apply_allocation;
        ] );
      ( "relax",
        [ Alcotest.test_case "restore + Algorithm 1 allocation" `Quick
            test_relaxation_allocation;
        ] );
      ( "report",
        [ Alcotest.test_case "JSON report allocation" `Quick
            test_report_allocation;
          Alcotest.test_case "serve reply allocation" `Quick
            test_reply_allocation;
          Alcotest.test_case "served analyse allocation" `Quick
            test_served_reply_allocation;
        ] );
      ( "graph",
        [ Alcotest.test_case "parse allocation" `Quick test_parse_allocation;
          Alcotest.test_case "retained words" `Quick test_retained_words;
        ] );
      ( "pool",
        [ Alcotest.test_case "covers all indices" `Quick
            test_pool_covers_all_indices;
          Alcotest.test_case "propagates exceptions" `Quick
            test_pool_propagates_exceptions;
          Alcotest.test_case "jobs=1 is inline" `Quick test_pool_sequential;
          Alcotest.test_case "shared pool" `Quick test_pool_shared;
        ] );
      ( "arena",
        [ Alcotest.test_case "recycles buffers" `Quick test_arena_recycles ] );
    ]
