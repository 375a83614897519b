(* Session engine semantics: what-if parity against the one-shot engine,
   cache reuse observed through telemetry counters, the serve-loop
   transcript (including malformed requests and timeouts), the unified
   error type, and the util-layer pieces (Json, Timeout) underneath. *)

module Json = Hb_util.Json

(* [Time.equal nan nan] is false; report arrays carry nan for
   unconstrained slots, so parity checks need a nan-aware equality. *)
let time_eq a b =
  Hb_util.Time.equal a b || (Float.is_nan a && Float.is_nan b)

let time = Alcotest.testable Hb_util.Time.pp time_eq

let pipeline ?period () =
  Hb_workload.Pipelines.edge_ff ?period ~width:4 ~stages:3
    ~gates_per_stage:20 ()

(* An instance whose edit genuinely moves timing: prefer one on a worst
   path; when the worst endpoints are direct register-to-register hops
   (common on relaxed designs), fall back to any instance carrying a
   cluster timing arc. *)
let path_instance session =
  let ctx = Hb_sta.Session.context session in
  let design = ctx.Hb_sta.Context.design in
  let name inst =
    (Hb_netlist.Design.instance design inst).Hb_netlist.Design.inst_name
  in
  let on_paths =
    List.find_map
      (fun (path : Hb_sta.Paths.path) ->
         List.find_map
           (fun (hop : Hb_sta.Paths.hop) -> hop.Hb_sta.Paths.via)
           path.Hb_sta.Paths.hops)
      (Hb_sta.Session.worst_paths session ~limit:10)
  in
  match on_paths with
  | Some inst -> name inst
  | None ->
    let clusters = ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters in
    let arc_inst =
      Array.find_map
        (fun (cluster : Hb_sta.Cluster.t) ->
           if Array.length cluster.Hb_sta.Cluster.arc_inst > 0 then
             Some cluster.Hb_sta.Cluster.arc_inst.(0)
           else None)
        clusters
    in
    (match arc_inst with
     | Some inst -> name inst
     | None -> Alcotest.fail "design has no timing arcs")

let check_reports_equal label (a : Hb_sta.Engine.report)
    (b : Hb_sta.Engine.report) =
  let sa = a.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final in
  let sb = b.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final in
  Alcotest.check time (label ^ ": worst slack") sa.Hb_sta.Slacks.worst
    sb.Hb_sta.Slacks.worst;
  Alcotest.(check bool)
    (label ^ ": status") true
    (a.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.status
     = b.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.status);
  Alcotest.(check int)
    (label ^ ": forward cycles")
    a.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.forward_cycles
    b.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.forward_cycles;
  Alcotest.check
    Alcotest.(array time)
    (label ^ ": element input slacks")
    sa.Hb_sta.Slacks.element_input_slack sb.Hb_sta.Slacks.element_input_slack;
  Alcotest.check
    Alcotest.(array time)
    (label ^ ": net slacks")
    sa.Hb_sta.Slacks.net_slack sb.Hb_sta.Slacks.net_slack;
  (* Element, label, margin bits and order. *)
  let hold (r : Hb_sta.Engine.report) =
    List.map
      (fun (v : Hb_sta.Holdcheck.violation) ->
         Printf.sprintf "%d %s %Lx" v.Hb_sta.Holdcheck.element
           v.Hb_sta.Holdcheck.label
           (Int64.bits_of_float v.Hb_sta.Holdcheck.margin))
      r.Hb_sta.Engine.hold_violations
  in
  Alcotest.(check (list string)) (label ^ ": hold violations") (hold a)
    (hold b);
  match a.Hb_sta.Engine.constraints, b.Hb_sta.Engine.constraints with
  | Some ca, Some cb ->
    Alcotest.check
      Alcotest.(array time)
      (label ^ ": constraint ready times")
      ca.Hb_sta.Algorithm2.ready cb.Hb_sta.Algorithm2.ready
  | None, None -> ()
  | _ -> Alcotest.fail (label ^ ": constraints presence differs")

(* ------------------------------------------------------------------ *)
(* what-if parity                                                     *)
(* ------------------------------------------------------------------ *)

let test_whatif_scale_parity () =
  let design, system = pipeline ~period:3.0 () in
  let session = Hb_sta.Session.create ~design ~system () in
  let instance = path_instance session in
  let _ : Hb_sta.Session.apply_result =
    Hb_sta.Session.apply session
      [ Hb_sta.Edit.Scale_delay { instance; factor = 0.7 } ]
  in
  let via_session = Hb_sta.Session.analyse session in
  let delays =
    Hb_sta.Annotation.apply
      (Hb_sta.Annotation.of_entries
         [ (instance, Hb_sta.Annotation.Scaled 0.7) ])
      ~base:Hb_sta.Delays.lumped
  in
  let fresh = Hb_sta.Engine.analyse ~design ~system ~delays () in
  check_reports_equal "scaled" via_session fresh;
  (* Override the override: a fixed-delay edit replaces the scaling. *)
  let _ : Hb_sta.Session.apply_result =
    Hb_sta.Session.apply session
      [ Hb_sta.Edit.Set_delay { instance; rise = 0.9; fall = 1.1 } ]
  in
  let via_session = Hb_sta.Session.analyse session in
  let delays =
    Hb_sta.Annotation.apply
      (Hb_sta.Annotation.of_entries
         [ (instance, Hb_sta.Annotation.Fixed { rise = 0.9; fall = 1.1 }) ])
      ~base:Hb_sta.Delays.lumped
  in
  let fresh = Hb_sta.Engine.analyse ~design ~system ~delays () in
  check_reports_equal "fixed" via_session fresh;
  Hb_sta.Session.close session

let test_whatif_annotation_parity () =
  let design, system = pipeline ~period:3.0 () in
  let session = Hb_sta.Session.create ~design ~system () in
  let instance = path_instance session in
  let text = Printf.sprintf "scale %s 0.6\ndelay ghost rise 1 fall 1" instance in
  let annotation = Hb_sta.Annotation.parse text in
  Alcotest.(check (list string)) "unused names" [ "ghost" ]
    (Hb_sta.Annotation.unused annotation ~design);
  (* [Edit.Annotate] skips unknown entries. *)
  let _ : Hb_sta.Session.apply_result =
    Hb_sta.Session.apply session [ Hb_sta.Edit.Annotate annotation ]
  in
  let via_session = Hb_sta.Session.analyse session in
  let fresh =
    Hb_sta.Engine.analyse ~design ~system
      ~delays:(Hb_sta.Annotation.apply annotation ~base:Hb_sta.Delays.lumped)
      ()
  in
  check_reports_equal "annotation" via_session fresh;
  Hb_sta.Session.close session

(* Every arc's rise, fall, dmax and dmin bits, cluster by cluster. *)
let arc_bits (ctx : Hb_sta.Context.t) =
  Array.to_list ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters
  |> List.concat_map (fun (c : Hb_sta.Cluster.t) ->
      List.concat_map
        (fun values ->
           Array.to_list
             (Array.map (fun x -> Int64.bits_of_float x) values))
        [ c.Hb_sta.Cluster.arc_rise; c.Hb_sta.Cluster.arc_fall;
          c.Hb_sta.Cluster.arc_dmax; c.Hb_sta.Cluster.arc_dmin ])

(* A cell whose two arcs have different delays, both inputs of one
   instance on the same net: the fast arc a->y sets the hold margin at
   ff2. Refreshing the instance after an edit must keep the two arcs
   apart, as extraction does. *)
let skewed_design () =
  let model intrinsic_rise intrinsic_fall =
    Hb_cell.Delay_model.make
      ~rise:(Hb_cell.Delay_model.arc ~intrinsic:intrinsic_rise ~slope:0.5)
      ~fall:(Hb_cell.Delay_model.arc ~intrinsic:intrinsic_fall ~slope:0.4)
  in
  let pin pin_name role capacitance =
    { Hb_cell.Cell.pin_name; role; capacitance }
  in
  let skew2 =
    Hb_cell.Cell.make ~name:"skew2" ~kind:(Hb_cell.Kind.Comb Hb_cell.Kind.And2)
      ~pins:
        [ pin "a" Hb_cell.Cell.Data_in 0.01;
          pin "b" Hb_cell.Cell.Data_in 0.01;
          pin "y" Hb_cell.Cell.Data_out 0.0 ]
      ~timing:
        (Hb_cell.Cell.Comb_timing
           [ { Hb_cell.Cell.from_pin = "a"; to_pin = "y";
               delay = model 0.2 0.18 };
             { Hb_cell.Cell.from_pin = "b"; to_pin = "y";
               delay = model 3.0 2.7 } ])
      ~area:2.0 ~drive:1
  in
  let library =
    Hb_cell.Library.create
      (skew2 :: Hb_cell.Library.cells (Hb_cell.Library.default ()))
  in
  let b = Hb_netlist.Builder.create ~name:"skewed" ~library in
  Hb_netlist.Builder.add_port b ~name:"clk"
    ~direction:Hb_netlist.Design.Port_in ~is_clock:true;
  Hb_netlist.Builder.add_port b ~name:"din"
    ~direction:Hb_netlist.Design.Port_in ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"g" ~cell:"skew2"
    ~connections:[ ("a", "din"); ("b", "din"); ("y", "u") ] ();
  Hb_netlist.Builder.add_instance b ~name:"ff2" ~cell:"dff"
    ~connections:[ ("d", "u"); ("ck", "clk"); ("q", "q2") ] ();
  let system =
    Hb_clock.System.make ~overall_period:10.0
      [ Hb_clock.Waveform.make ~name:"clk" ~multiplier:1 ~rise:0.0
          ~width:5.0 ]
  in
  (Hb_netlist.Builder.freeze b, system)

let test_whatif_skewed_cell_parity () =
  let design, system = skewed_design () in
  let config =
    { Hb_sta.Config.default with Hb_sta.Config.default_input_arrival = -8.0 }
  in
  let session = Hb_sta.Session.create ~design ~system ~config () in
  let _ : Hb_sta.Session.apply_result =
    Hb_sta.Session.apply session
      [ Hb_sta.Edit.Scale_delay { instance = "g"; factor = 1.0 } ]
  in
  let delays =
    Hb_sta.Annotation.apply
      (Hb_sta.Annotation.of_entries [ ("g", Hb_sta.Annotation.Scaled 1.0) ])
      ~base:Hb_sta.Delays.lumped
  in
  Alcotest.(check (list int64)) "arc bits"
    (arc_bits (Hb_sta.Context.make ~design ~system ~config ~delays ()))
    (arc_bits (Hb_sta.Session.context session));
  let fresh = Hb_sta.Engine.analyse ~design ~system ~config ~delays () in
  Alcotest.(check int) "fresh engine: one hold violation" 1
    (List.length fresh.Hb_sta.Engine.hold_violations);
  check_reports_equal "skewed" (Hb_sta.Session.analyse session) fresh;
  Hb_sta.Session.close session

(* The refresh replays extraction's walk, so an instance whose pin moved
   to another net, keeping its arc count, no longer matches the table: it
   must be refused, not given delays for arcs that join other nets. *)
let test_refresh_rejects_rewired_pin () =
  let design, system = skewed_design () in
  let ctx = Hb_sta.Context.make ~design ~system () in
  let inst = Option.get (Hb_netlist.Design.find_instance design "g") in
  let rewired =
    Hb_netlist.Structural.rewire_pin design ~inst ~pin:"b"
      ~net:(Option.get (Hb_netlist.Design.find_net design "q2"))
  in
  match
    Hb_sta.Cluster.refresh_instance_delays ctx.Hb_sta.Context.table
      ~design:rewired ~insts:[ inst ] ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "refresh accepted an instance with a rewired pin"

(* One [Annotate] naming every instance resolves its names in one walk:
   it stays fast at 10k cells, and the refreshed arcs are bit for bit a
   fresh context's under [Annotation.apply] of the same entries (first
   entry wins, unknown names ignored). Bad entries are rejected with the
   command's index. *)
let test_annotate_every_instance () =
  let design, system = Hb_workload.Scale.scale10k () in
  let session = Hb_sta.Session.create ~design ~system () in
  let names =
    List.init (Hb_netlist.Design.instance_count design) (fun i ->
        (Hb_netlist.Design.instance design i).Hb_netlist.Design.inst_name)
  in
  let entries =
    List.mapi
      (fun i name ->
         if i mod 5 = 0 then
           (name, Hb_sta.Annotation.Fixed { rise = 0.3; fall = 0.25 })
         else (name, Hb_sta.Annotation.Scaled (0.5 +. (0.1 *. float (i mod 7)))))
      names
    @ [ ("ghost", Hb_sta.Annotation.Scaled 2.0);
        (List.hd names, Hb_sta.Annotation.Scaled 3.0) ]
  in
  let annotation = Hb_sta.Annotation.of_entries entries in
  let start = Unix.gettimeofday () in
  let _ : Hb_sta.Session.apply_result =
    Hb_sta.Session.apply session [ Hb_sta.Edit.Annotate annotation ]
  in
  let elapsed = Unix.gettimeofday () -. start in
  Alcotest.(check bool)
    (Printf.sprintf "apply took %.3f s (budget 0.5 s)" elapsed)
    true (elapsed < 0.5);
  Alcotest.(check (list int64)) "arc bits"
    (arc_bits
       (Hb_sta.Context.make ~design ~system
          ~delays:(Hb_sta.Annotation.apply annotation ~base:Hb_sta.Delays.lumped)
          ()))
    (arc_bits (Hb_sta.Session.context session));
  let rejected entry =
    match
      Hb_sta.Session.apply_r session
        [ Hb_sta.Edit.Scale_delay { instance = List.hd names; factor = 2.0 };
          Hb_sta.Edit.Annotate
            (Hb_sta.Annotation.of_entries [ (List.nth names 1, entry) ]) ]
    with
    | Ok _ -> None
    | Error { Hb_sta.Session.failed_index; _ } -> failed_index
  in
  Alcotest.(check (option int)) "Scaled 0.0 rejected" (Some 1)
    (rejected (Hb_sta.Annotation.Scaled 0.0));
  Alcotest.(check (option int)) "negative Fixed rejected" (Some 1)
    (rejected (Hb_sta.Annotation.Fixed { rise = -1.0; fall = 0.5 }));
  Hb_sta.Session.close session

let test_repeated_queries_stable () =
  let design, system = pipeline ~period:3.0 () in
  let session = Hb_sta.Session.create ~design ~system () in
  let first = Hb_sta.Session.analyse session in
  let second = Hb_sta.Session.analyse session in
  check_reports_equal "idempotent" first second;
  let p1 = Hb_sta.Session.worst_paths session ~limit:3 in
  let p2 = Hb_sta.Session.worst_paths session ~limit:3 in
  Alcotest.(check int) "same path count" (List.length p1) (List.length p2);
  List.iter2
    (fun (a : Hb_sta.Paths.path) (b : Hb_sta.Paths.path) ->
       Alcotest.check time "same path slack" a.Hb_sta.Paths.slack
         b.Hb_sta.Paths.slack)
    p1 p2;
  Hb_sta.Session.close session

let test_set_offset_deterministic () =
  let design, system = pipeline ~period:3.0 () in
  let run () =
    let session = Hb_sta.Session.create ~design ~system () in
    let elements = (Hb_sta.Session.context session).Hb_sta.Context.elements in
    (* First adjustable (non-boundary) element. *)
    let element = ref (-1) in
    for e = Hb_sta.Elements.count elements - 1 downto 0 do
      if not (Hb_sync.Element.is_boundary (Hb_sta.Elements.element elements e))
      then element := e
    done;
    if !element < 0 then Alcotest.fail "no adjustable element";
    let _ : Hb_sta.Session.apply_result =
      Hb_sta.Session.apply session
        [ Hb_sta.Edit.Set_offset { element = !element; offset = 0.25 } ]
    in
    let report = Hb_sta.Session.analyse session in
    Hb_sta.Session.close session;
    report
  in
  check_reports_equal "offset edit" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* structural ECO edits                                               *)
(* ------------------------------------------------------------------ *)

let library = Hb_cell.Library.default ()

(* A one-input one-output combinational cell, for buffer insertion. *)
let buffer_cell =
  lazy
    (match
       List.find_opt
         (fun (c : Hb_cell.Cell.t) ->
            Hb_cell.Kind.is_comb c.Hb_cell.Cell.kind
            &&
            match
              ( Hb_cell.Cell.input_pins c,
                Hb_cell.Cell.output_pins c,
                Hb_cell.Cell.control_pins c )
            with
            | [ _ ], [ _ ], [] -> true
            | _ -> false)
         (Hb_cell.Library.cells library)
     with
     | Some c -> c
     | None -> Alcotest.fail "library has no buffer-shaped cell")

(* A worst-path net outside every control cone, by design name. *)
let path_net session =
  let ctx = Hb_sta.Session.context session in
  let design = ctx.Hb_sta.Context.design in
  let control = Hb_sta.Edit.control_nets design in
  let candidate =
    Hb_sta.Session.worst_paths session ~limit:10
    |> List.concat_map (fun (p : Hb_sta.Paths.path) -> p.Hb_sta.Paths.hops)
    |> List.find_opt
         (fun (h : Hb_sta.Paths.hop) ->
            (* [via = Some _] means a combinational driver: insert_buffer
               refuses synchroniser-driven nets. *)
            h.Hb_sta.Paths.via <> None && not control.(h.Hb_sta.Paths.net))
  in
  match candidate with
  | Some h ->
    (Hb_netlist.Design.net design h.Hb_sta.Paths.net).Hb_netlist.Design.net_name
  | None -> Alcotest.fail "no editable net on the worst paths"

(* The ECO acceptance bar: after an [apply], the session's incremental
   re-analysis must be bit-identical to a fresh engine run on the
   session's own post-edit design — cluster surgery may not drift from
   a from-scratch preprocess. *)
let check_structural_parity label session edits =
  let result = Hb_sta.Session.apply session edits in
  Alcotest.(check int)
    (label ^ ": structural commands counted")
    (List.length edits) result.Hb_sta.Session.structural;
  let via_session =
    Hb_sta.Session.analyse ~generate_constraints:true ~check_hold:true session
  in
  let ctx = Hb_sta.Session.context session in
  let fresh =
    Hb_sta.Engine.analyse ~design:ctx.Hb_sta.Context.design
      ~system:ctx.Hb_sta.Context.system ~generate_constraints:true
      ~check_hold:true ()
  in
  check_reports_equal label via_session fresh

let test_eco_insert_buffer () =
  let design, system = pipeline ~period:3.0 () in
  let session = Hb_sta.Session.create ~design ~system () in
  let net = path_net session in
  check_structural_parity "insert_buffer" session
    [ Hb_sta.Edit.Insert_buffer
        { net;
          cell = Lazy.force buffer_cell;
          inst_name = None;
          net_name = None;
        } ];
  Hb_sta.Session.close session

let test_eco_resize_gate () =
  let design, system = pipeline ~period:3.0 () in
  let session = Hb_sta.Session.create ~design ~system () in
  let instance = path_instance session in
  let cell =
    match Hb_netlist.Design.find_instance design instance with
    | None -> Alcotest.fail "path instance vanished"
    | Some i -> (Hb_netlist.Design.instance design i).Hb_netlist.Design.cell
  in
  let replacement =
    match Hb_cell.Library.upsize library cell with
    | Some c -> c
    | None ->
      (match Hb_cell.Library.downsize library cell with
       | Some c -> c
       | None -> Alcotest.fail "no alternative drive strength in the library")
  in
  check_structural_parity "resize_gate" session
    [ Hb_sta.Edit.Resize_gate { instance; cell = replacement } ];
  Hb_sta.Session.close session

let test_eco_remove_gate () =
  let design, system = pipeline ~period:3.0 () in
  let session = Hb_sta.Session.create ~design ~system () in
  let instance = path_instance session in
  check_structural_parity "remove_gate" session
    [ Hb_sta.Edit.Remove_gate { instance } ];
  Hb_sta.Session.close session

let test_eco_rewire_net () =
  let design, system = pipeline ~period:3.0 () in
  let session = Hb_sta.Session.create ~design ~system () in
  let d = (Hb_sta.Session.context session).Hb_sta.Context.design in
  let control = Hb_sta.Edit.control_nets d in
  (* Move an input pin of a downstream worst-path gate onto the path's
     source net: strictly upstream, so no cycle can form. *)
  let pick =
    Hb_sta.Session.worst_paths session ~limit:10
    |> List.find_map (fun (p : Hb_sta.Paths.path) ->
        match p.Hb_sta.Paths.hops with
        | first :: rest when not control.(first.Hb_sta.Paths.net) ->
          List.find_map
            (fun (h : Hb_sta.Paths.hop) ->
               match h.Hb_sta.Paths.via with
               | None -> None
               | Some inst ->
                 let record = Hb_netlist.Design.instance d inst in
                 (match
                    Hb_cell.Cell.input_pins record.Hb_netlist.Design.cell
                  with
                  | [] -> None
                  | pin :: _ ->
                    let pin = pin.Hb_cell.Cell.pin_name in
                    (match Hb_netlist.Design.net_of_pin d ~inst ~pin with
                     | Some current when current <> first.Hb_sta.Paths.net ->
                       Some
                         ( record.Hb_netlist.Design.inst_name,
                           pin,
                           (Hb_netlist.Design.net d first.Hb_sta.Paths.net)
                             .Hb_netlist.Design.net_name )
                     | Some _ | None -> None)))
            rest
        | _ -> None)
  in
  (match pick with
   | None -> Alcotest.fail "no rewire candidate on the worst paths"
   | Some (instance, pin, net) ->
     check_structural_parity "rewire_net" session
       [ Hb_sta.Edit.Rewire_net { instance; pin; net } ]);
  Hb_sta.Session.close session

(* Every slack of a report, as bits. *)
let slack_bits (r : Hb_sta.Engine.report) =
  let s = r.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.final in
  List.concat_map
    (fun values -> Array.to_list (Array.map Int64.bits_of_float values))
    [ s.Hb_sta.Slacks.element_input_slack;
      s.Hb_sta.Slacks.element_output_slack;
      s.Hb_sta.Slacks.net_slack;
      s.Hb_sta.Slacks.net_ready;
      s.Hb_sta.Slacks.net_required;
      [| s.Hb_sta.Slacks.worst |] ]

(* A batch resolves the names of all its commands in one walk over the
   design. On scale10k, 1,000 [scale_delay] commands in one batch give
   the slack and arc bits of one command per batch, and invalidate each
   cluster the one-command batches invalidated, once. An unknown name is
   refused with its command's index, and a buffer inserted earlier in a
   batch can be resized later in it. *)
let test_eco_batch_names () =
  let design, system = Hb_workload.Scale.scale10k () in
  let comb = Array.of_list (Hb_netlist.Design.comb_instances design) in
  let picks =
    Array.init 1000 (fun k -> comb.(k * Array.length comb / 1000))
  in
  let name inst =
    (Hb_netlist.Design.instance design inst).Hb_netlist.Design.inst_name
  in
  let commands =
    Array.to_list
      (Array.mapi
         (fun k inst ->
            Hb_sta.Edit.Scale_delay
              { instance = name inst;
                factor = 0.8 +. (0.04 *. float_of_int (k mod 11)) })
         picks)
  in
  let batched = Hb_sta.Session.create ~design ~system () in
  let start = Unix.gettimeofday () in
  let result = Hb_sta.Session.apply batched commands in
  let elapsed = Unix.gettimeofday () -. start in
  Alcotest.(check bool)
    (Printf.sprintf "apply took %.3f s (budget 0.5 s)" elapsed)
    true (elapsed < 0.5);
  let single = Hb_sta.Session.create ~design ~system () in
  let per_command =
    List.map
      (fun command ->
         (Hb_sta.Session.apply single [ command ])
           .Hb_sta.Session.clusters_invalidated)
      commands
  in
  (* The cluster holding each gate's arcs, if it has any. *)
  let cluster_of = Hashtbl.create 1024 in
  Array.iteri
    (fun c (cluster : Hb_sta.Cluster.t) ->
       Array.iter
         (fun inst -> Hashtbl.replace cluster_of inst c)
         cluster.Hb_sta.Cluster.arc_inst)
    (Hb_sta.Session.context single).Hb_sta.Context.table
      .Hb_sta.Cluster.clusters;
  let clusters = Array.map (Hashtbl.find_opt cluster_of) picks in
  Alcotest.(check (list int)) "one-command batches"
    (Array.to_list
       (Array.map (function Some _ -> 1 | None -> 0) clusters))
    per_command;
  Alcotest.(check int) "clusters invalidated once each"
    (List.length
       (List.sort_uniq compare
          (List.filter_map Fun.id (Array.to_list clusters))))
    result.Hb_sta.Session.clusters_invalidated;
  Alcotest.(check (list int64)) "arc bits"
    (arc_bits (Hb_sta.Session.context single))
    (arc_bits (Hb_sta.Session.context batched));
  Alcotest.(check (list int64)) "slack bits"
    (slack_bits (Hb_sta.Session.analyse single))
    (slack_bits (Hb_sta.Session.analyse batched));
  Hb_sta.Session.close single;
  let k = 617 in
  let unknown =
    List.mapi
      (fun i command ->
         if i = k then
           Hb_sta.Edit.Scale_delay { instance = "no-such-gate"; factor = 0.9 }
         else command)
      commands
  in
  (match Hb_sta.Session.apply batched unknown with
   | _ -> Alcotest.fail "a batch naming an unknown gate must be refused"
   | exception Hb_sta.Error.Error (Hb_sta.Error.Invalid m) ->
     let prefix = Printf.sprintf "edit %d: unknown instance" k in
     Alcotest.(check string) "index in the message" prefix
       (String.sub m 0 (min (String.length m) (String.length prefix))));
  Hb_sta.Session.close batched;
  let cell = Hb_cell.Library.find_exn library in
  let session = Hb_sta.Session.create ~design ~system () in
  check_structural_parity "resize of an inserted buffer" session
    [ Hb_sta.Edit.Insert_buffer
        { net = path_net session;
          cell = cell "buf_x1";
          inst_name = Some "eco_buf";
          net_name = Some "eco_net";
        };
      Hb_sta.Edit.Resize_gate { instance = "eco_buf"; cell = cell "buf_x4" } ];
  Hb_sta.Session.close session

(* A rejected batch is a true no-op: the session answers exactly as it
   did before, and the failing command is named. *)
let test_eco_atomicity () =
  let design, system = pipeline ~period:3.0 () in
  let session = Hb_sta.Session.create ~design ~system () in
  let before = Hb_sta.Session.analyse session in
  let instance = path_instance session in
  let batch =
    [ Hb_sta.Edit.Scale_delay { instance; factor = 0.5 };
      Hb_sta.Edit.Insert_buffer
        { net = path_net session;
          cell = Lazy.force buffer_cell;
          inst_name = None;
          net_name = None;
        };
      Hb_sta.Edit.Remove_gate { instance = "no-such-instance" } ]
  in
  (match Hb_sta.Session.apply_r session batch with
   | Ok _ -> Alcotest.fail "batch with an unknown instance must be rejected"
   | Error { Hb_sta.Session.failed_index; error } ->
     Alcotest.(check (option int)) "failing command named" (Some 2)
       failed_index;
     Alcotest.(check string) "structured code" "invalid"
       (Hb_sta.Error.code error));
  let after = Hb_sta.Session.analyse session in
  check_reports_equal "rejected batch is a no-op" before after;
  Hb_sta.Session.close session

let test_eco_control_cone_rejected () =
  let design, system = pipeline ~period:3.0 () in
  let session = Hb_sta.Session.create ~design ~system () in
  let control = Hb_sta.Edit.control_nets design in
  let net = ref None in
  Array.iteri
    (fun i marked ->
       if marked && !net = None then
         net :=
           Some (Hb_netlist.Design.net design i).Hb_netlist.Design.net_name)
    control;
  (match !net with
   | None -> Alcotest.fail "pipeline has no control nets"
   | Some net ->
     (match
        Hb_sta.Session.apply_r session
          [ Hb_sta.Edit.Insert_buffer
              { net;
                cell = Lazy.force buffer_cell;
                inst_name = None;
                net_name = None;
              } ]
      with
      | Ok _ -> Alcotest.fail "control-cone edit must be rejected"
      | Error { Hb_sta.Session.error; _ } ->
        Alcotest.(check string) "invalid code" "invalid"
          (Hb_sta.Error.code error)));
  (* Still serviceable. *)
  ignore (Hb_sta.Session.analyse session : Hb_sta.Session.report);
  Hb_sta.Session.close session

(* Rewiring a gate's input onto its own output is a combinational cycle:
   rejected with the dedicated error kind, session untouched. *)
let test_eco_cycle_rejected () =
  let design, system = pipeline ~period:3.0 () in
  let session = Hb_sta.Session.create ~design ~system () in
  let before = Hb_sta.Session.analyse session in
  let instance = path_instance session in
  let d = (Hb_sta.Session.context session).Hb_sta.Context.design in
  let inst =
    match Hb_netlist.Design.find_instance d instance with
    | Some i -> i
    | None -> Alcotest.fail "path instance vanished"
  in
  let cell = (Hb_netlist.Design.instance d inst).Hb_netlist.Design.cell in
  let in_pin =
    match Hb_cell.Cell.input_pins cell with
    | p :: _ -> p.Hb_cell.Cell.pin_name
    | [] -> Alcotest.fail "path instance has no input pin"
  in
  let out_net =
    match Hb_cell.Cell.output_pins cell with
    | p :: _ ->
      (match
         Hb_netlist.Design.net_of_pin d ~inst ~pin:p.Hb_cell.Cell.pin_name
       with
       | Some n -> (Hb_netlist.Design.net d n).Hb_netlist.Design.net_name
       | None -> Alcotest.fail "output pin unconnected")
    | [] -> Alcotest.fail "path instance has no output pin"
  in
  (match
     Hb_sta.Session.apply_r session
       [ Hb_sta.Edit.Rewire_net { instance; pin = in_pin; net = out_net } ]
   with
   | Ok _ -> Alcotest.fail "self-loop rewire must be rejected"
   | Error { Hb_sta.Session.error; _ } ->
     Alcotest.(check string) "cycle code" "cycle" (Hb_sta.Error.code error));
  let after = Hb_sta.Session.analyse session in
  check_reports_equal "rejected cycle is a no-op" before after;
  Hb_sta.Session.close session

(* The context a structural commit leaves must equal, field by field,
   the one a from-scratch preprocess builds on the edited design: cluster
   ids, nets, members, every arc array bit for bit, CSR, topological
   order, terminals, the net maps, the pass plans, the endpoint maps and
   the element-to-cluster incidence. *)
let context_differences (got : Hb_sta.Context.t) (want : Hb_sta.Context.t) =
  let open Hb_sta in
  let found = ref [] in
  let expect what same = if not same then found := what :: !found in
  let bits a = Array.map Int64.bits_of_float a in
  let gt = got.Context.table and wt = want.Context.table in
  expect "cluster count"
    (Array.length gt.Cluster.clusters = Array.length wt.Cluster.clusters);
  expect "cluster_of_net" (gt.Cluster.cluster_of_net = wt.Cluster.cluster_of_net);
  expect "local_of_net" (gt.Cluster.local_of_net = wt.Cluster.local_of_net);
  if Array.length gt.Cluster.clusters = Array.length wt.Cluster.clusters then
    Array.iteri
      (fun c (w : Cluster.t) ->
         let g = gt.Cluster.clusters.(c) in
         let field name same =
           expect (Printf.sprintf "cluster %d %s" c name) same
         in
         field "id" (g.Cluster.id = w.Cluster.id);
         field "nets" (g.Cluster.nets = w.Cluster.nets);
         field "members" (g.Cluster.members = w.Cluster.members);
         field "arc_from" (g.Cluster.arc_from = w.Cluster.arc_from);
         field "arc_to" (g.Cluster.arc_to = w.Cluster.arc_to);
         field "arc_dmax" (bits g.Cluster.arc_dmax = bits w.Cluster.arc_dmax);
         field "arc_dmin" (bits g.Cluster.arc_dmin = bits w.Cluster.arc_dmin);
         field "arc_rise" (bits g.Cluster.arc_rise = bits w.Cluster.arc_rise);
         field "arc_fall" (bits g.Cluster.arc_fall = bits w.Cluster.arc_fall);
         field "arc_sense" (g.Cluster.arc_sense = w.Cluster.arc_sense);
         field "arc_inst" (g.Cluster.arc_inst = w.Cluster.arc_inst);
         field "succ_off" (g.Cluster.succ_off = w.Cluster.succ_off);
         field "succ_arc" (g.Cluster.succ_arc = w.Cluster.succ_arc);
         field "pred_off" (g.Cluster.pred_off = w.Cluster.pred_off);
         field "pred_arc" (g.Cluster.pred_arc = w.Cluster.pred_arc);
         field "topo" (g.Cluster.topo = w.Cluster.topo);
         field "inputs" (g.Cluster.inputs = w.Cluster.inputs);
         field "outputs" (g.Cluster.outputs = w.Cluster.outputs))
      wt.Cluster.clusters;
  let gp = got.Context.passes and wp = want.Context.passes in
  expect "plans" (gp.Passes.plans = wp.Passes.plans);
  expect "element_assertion_node"
    (gp.Passes.element_assertion_node = wp.Passes.element_assertion_node);
  expect "element_closure_node"
    (gp.Passes.element_closure_node = wp.Passes.element_closure_node);
  expect "endpoint_cluster"
    (gp.Passes.endpoint_cluster = wp.Passes.endpoint_cluster);
  expect "endpoint_output" (gp.Passes.endpoint_output = wp.Passes.endpoint_output);
  expect "endpoint_cut" (gp.Passes.endpoint_cut = wp.Passes.endpoint_cut);
  expect "clusters_of_element"
    (got.Context.clusters_of_element = want.Context.clusters_of_element);
  List.rev !found

(* Edit candidates on a session's current design, in instance or net id
   order from a third of the way in, so large designs are not edited at
   their first gate only. *)
let rotated count = List.init count (fun k -> (k + (count / 3)) mod count)

(* A live combinational gate none of whose nets a control cone marks. *)
let editable_gate design control inst =
  let record = Hb_netlist.Design.instance design inst in
  Hb_cell.Kind.is_comb record.Hb_netlist.Design.cell.Hb_cell.Cell.kind
  && record.Hb_netlist.Design.connections <> []
  && List.for_all
       (fun (_, net) -> not control.(net))
       record.Hb_netlist.Design.connections

let instance_name design inst =
  (Hb_netlist.Design.instance design inst).Hb_netlist.Design.inst_name

let net_name design net =
  (Hb_netlist.Design.net design net).Hb_netlist.Design.net_name

let cluster_count design elements =
  Array.length
    (Hb_sta.Cluster.extract ~design ~elements ()).Hb_sta.Cluster.clusters

let resize_candidate design control ~avoid =
  List.find_map
    (fun inst ->
       if List.mem inst avoid || not (editable_gate design control inst)
       then None
       else
         let record = Hb_netlist.Design.instance design inst in
         let cell = record.Hb_netlist.Design.cell in
         match Hb_cell.Library.upsize library cell with
         | Some c -> Some (inst, c)
         | None ->
           Option.map
             (fun c -> (inst, c))
             (Hb_cell.Library.downsize library cell))
    (rotated (Hb_netlist.Design.instance_count design))

(* A net driven by one editable gate: the buffer appends a net. *)
let insert_candidate design control ~avoid =
  List.find_opt
    (fun net ->
       (not control.(net))
       &&
       match (Hb_netlist.Design.net design net).Hb_netlist.Design.drivers with
       | [ Hb_netlist.Design.Pin { inst; pin = _ } ] ->
         (not (List.mem inst avoid)) && editable_gate design control inst
       | _ -> false)
    (rotated (Hb_netlist.Design.net_count design))

(* A gate whose removal leaves more clusters than before. *)
let split_candidate design elements control ~avoid =
  let before = cluster_count design elements in
  List.find_opt
    (fun inst ->
       (not (List.mem inst avoid))
       && editable_gate design control inst
       && List.length
            (List.sort_uniq compare
               (List.map snd
                  (Hb_netlist.Design.instance design inst)
                    .Hb_netlist.Design.connections))
          > 1
       && cluster_count
            (Hb_netlist.Structural.remove_gate design ~inst)
            elements
          > before)
    (rotated (Hb_netlist.Design.instance_count design))

(* An input pin moved onto a net of another cluster: the gate then joins
   its part of its own cluster to the target's cluster, so the move
   merges two clusters, and the old cluster may also split where the pin
   left. A move that leaves fewer clusters in all is preferred among the
   first 40 candidates. The target is in another cluster, so it is not
   reachable from the gate's outputs and no cycle forms. *)
let merge_candidate (ctx : Hb_sta.Context.t) control ~avoid =
  let design = ctx.Hb_sta.Context.design in
  let elements = ctx.Hb_sta.Context.elements in
  let cluster_of = ctx.Hb_sta.Context.table.Hb_sta.Cluster.cluster_of_net in
  let before = Array.length ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters in
  let nets = Hb_netlist.Design.net_count design in
  let candidates =
    List.filter_map
      (fun inst ->
         if List.mem inst avoid || not (editable_gate design control inst)
         then None
         else
           let record = Hb_netlist.Design.instance design inst in
           match
             List.find_map
               (fun (pin : Hb_cell.Cell.pin) ->
                  Option.map
                    (fun net -> (pin.Hb_cell.Cell.pin_name, net))
                    (Hb_netlist.Design.net_of_pin design ~inst
                       ~pin:pin.Hb_cell.Cell.pin_name))
               (Hb_cell.Cell.input_pins record.Hb_netlist.Design.cell)
           with
           | None -> None
           | Some (pin, on) ->
             Option.map
               (fun net -> (inst, pin, net))
               (List.find_opt
                  (fun net ->
                     (not control.(net)) && cluster_of.(net) <> cluster_of.(on))
                  (List.init nets (fun k -> (k + (2 * nets / 3)) mod nets))))
      (List.filteri (fun k _ -> k < 400)
         (rotated (Hb_netlist.Design.instance_count design)))
  in
  let fewer (inst, pin, net) =
    cluster_count (Hb_netlist.Structural.rewire_pin design ~inst ~pin ~net)
      elements
    < before
  in
  match List.find_opt fewer (List.filteri (fun k _ -> k < 40) candidates) with
  | Some _ as found -> found
  | None -> (match candidates with c :: _ -> Some c | [] -> None)

let test_eco_update_equals_extract () =
  let designs =
    [ "des"; "alu"; "sm1f"; "dsp"; "figure1"; "pipeline"; "scale10k" ]
  in
  List.iter
    (fun name ->
       let generate =
         match Hb_workload.Catalog.find name with
         | Some g -> g
         | None -> Alcotest.failf "no generator %s" name
       in
       let design, system = generate () in
       let session = Hb_sta.Session.create ~design ~system () in
       let commit label make =
         let ctx = Hb_sta.Session.context session in
         let design = ctx.Hb_sta.Context.design in
         let control = Hb_sta.Edit.control_nets design in
         match make ctx design control with
         | None -> Alcotest.failf "%s: no %s candidate" name label
         | Some (edits, expect_count) ->
           ignore (Hb_sta.Session.analyse session : Hb_sta.Session.report);
           let before = Array.length ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters in
           let result = Hb_sta.Session.apply session edits in
           let updated = Hb_sta.Session.context session in
           let fresh =
             Hb_sta.Context.make ~design:updated.Hb_sta.Context.design ~system
               ()
           in
           let after =
             Array.length updated.Hb_sta.Context.table.Hb_sta.Cluster.clusters
           in
           Alcotest.(check bool)
             (Printf.sprintf "%s %s: %d -> %d clusters" name label before after)
             true (expect_count before after);
           Alcotest.(check int)
             (Printf.sprintf "%s %s: commands" name label)
             (List.length edits) result.Hb_sta.Session.structural;
           Alcotest.(check (list string))
             (Printf.sprintf "%s %s: update = extract" name label)
             [] (context_differences updated fresh)
       in
       let any _ _ = true in
       commit "resize" (fun _ design control ->
           Option.map
             (fun (inst, cell) ->
                ( [ Hb_sta.Edit.Resize_gate
                      { instance = instance_name design inst; cell } ],
                  ( = ) ))
             (resize_candidate design control ~avoid:[]));
       commit "insert" (fun _ design control ->
           Option.map
             (fun net ->
                ( [ Hb_sta.Edit.Insert_buffer
                      { net = net_name design net;
                        cell = Lazy.force buffer_cell;
                        inst_name = None;
                        net_name = None } ],
                  any ))
             (insert_candidate design control ~avoid:[]));
       commit "split" (fun ctx design control ->
           Option.map
             (fun inst ->
                ( [ Hb_sta.Edit.Remove_gate
                      { instance = instance_name design inst } ],
                  ( < ) ))
             (split_candidate design ctx.Hb_sta.Context.elements control
                ~avoid:[]));
       commit "merge" (fun ctx design control ->
           Option.map
             (fun (inst, pin, net) ->
                ( [ Hb_sta.Edit.Rewire_net
                      { instance = instance_name design inst; pin;
                        net = net_name design net } ],
                  ( >= ) ))
             (merge_candidate ctx control ~avoid:[]));
       commit "mixed" (fun ctx design control ->
           match resize_candidate design control ~avoid:[] with
           | None -> None
           | Some (resized, cell) ->
             let driver net =
               match
                 (Hb_netlist.Design.net design net).Hb_netlist.Design.drivers
               with
               | [ Hb_netlist.Design.Pin { inst; pin = _ } ] -> inst
               | _ -> -1
             in
             (match insert_candidate design control ~avoid:[ resized ] with
              | None -> None
              | Some buffered ->
                let avoid = [ resized; driver buffered ] in
                (match merge_candidate ctx control ~avoid with
                 | None -> None
                 | Some (rewired, pin, target) ->
                   let avoid = rewired :: avoid in
                   Option.map
                     (fun removed ->
                        ( [ Hb_sta.Edit.Resize_gate
                              { instance = instance_name design resized; cell };
                            Hb_sta.Edit.Insert_buffer
                              { net = net_name design buffered;
                                cell = Lazy.force buffer_cell;
                                inst_name = None;
                                net_name = None };
                            Hb_sta.Edit.Rewire_net
                              { instance = instance_name design rewired; pin;
                                net = net_name design target };
                            Hb_sta.Edit.Remove_gate
                              { instance = instance_name design removed } ],
                          any ))
                     (split_candidate design ctx.Hb_sta.Context.elements
                        control ~avoid))));
       Hb_sta.Session.close session)
    designs

(* ------------------------------------------------------------------ *)
(* snapshots                                                          *)
(* ------------------------------------------------------------------ *)

let snapshot_designs =
  [ ("des", fun () -> Hb_workload.Chips.des ());
    ("alu", fun () -> Hb_workload.Chips.alu ());
    ("pipeline", fun () -> pipeline ~period:3.0 ()) ]

let test_snapshot_round_trip () =
  List.iter
    (fun (name, make) ->
       let design, system = make () in
       let session = Hb_sta.Session.create ~design ~system () in
       let reference = Hb_sta.Session.analyse session in
       let path = Filename.temp_file "hb_snap" ".hbs" in
       Fun.protect
         ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
         (fun () ->
            Hb_sta.Session.save_snapshot session ~path;
            Hb_sta.Session.close session;
            let restored = Hb_sta.Session.of_snapshot ~path in
            let after = Hb_sta.Session.analyse restored in
            check_reports_equal (name ^ ": snapshot round trip") reference
              after;
            (* The restored session stays live: edits keep working. *)
            let instance = path_instance restored in
            let _ : Hb_sta.Session.apply_result =
              Hb_sta.Session.apply restored
                [ Hb_sta.Edit.Scale_delay { instance; factor = 0.9 } ]
            in
            ignore (Hb_sta.Session.analyse restored : Hb_sta.Session.report);
            Hb_sta.Session.close restored))
    snapshot_designs

let expect_snapshot_error label path =
  match Hb_sta.Error.wrap (fun () -> Hb_sta.Session.of_snapshot ~path) with
  | Ok session ->
    Hb_sta.Session.close session;
    Alcotest.fail (label ^ ": corrupt snapshot restored")
  | Error err ->
    Alcotest.(check bool)
      (label ^ ": structured code (" ^ Hb_sta.Error.code err ^ ")")
      true
      (List.mem (Hb_sta.Error.code err) [ "invalid"; "io" ])

let test_snapshot_corruption () =
  let design, system = pipeline ~period:3.0 () in
  let session = Hb_sta.Session.create ~design ~system () in
  ignore (Hb_sta.Session.analyse session : Hb_sta.Session.report);
  let path = Filename.temp_file "hb_snap" ".hbs" in
  let mutant = Filename.temp_file "hb_snap" ".hbs" in
  Fun.protect
    ~finally:(fun () ->
        List.iter
          (fun p -> if Sys.file_exists p then Sys.remove p)
          [ path; mutant ])
    (fun () ->
       Hb_sta.Session.save_snapshot session ~path;
       Hb_sta.Session.close session;
       let original =
         let ic = open_in_bin path in
         let n = in_channel_length ic in
         let b = really_input_string ic n in
         close_in ic;
         Bytes.of_string b
       in
       let write_mutant bytes =
         let oc = open_out_bin mutant in
         output_bytes oc bytes;
         close_out oc
       in
       let flip bytes i =
         let b = Bytes.copy bytes in
         Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
         b
       in
       (* Sanity: the pristine copy restores. *)
       write_mutant original;
       (match
          Hb_sta.Error.wrap (fun () -> Hb_sta.Session.of_snapshot ~path:mutant)
        with
        | Ok s -> Hb_sta.Session.close s
        | Error e ->
          Alcotest.fail ("pristine copy rejected: " ^ Hb_sta.Error.to_string e));
       (* Truncation. *)
       write_mutant (Bytes.sub original 0 (Bytes.length original / 2));
       expect_snapshot_error "truncated" mutant;
       (* A single flipped payload bit. *)
       write_mutant (flip original (Bytes.length original - 1));
       expect_snapshot_error "payload bit flip" mutant;
       (* Format-version and engine-fingerprint mismatches. *)
       write_mutant (flip original Hb_sta.Snapshot.version_offset);
       expect_snapshot_error "version mismatch" mutant;
       write_mutant (flip original Hb_sta.Snapshot.fingerprint_offset);
       expect_snapshot_error "fingerprint mismatch" mutant;
       (* Not a snapshot at all; missing file. *)
       write_mutant (Bytes.of_string "not a snapshot");
       expect_snapshot_error "foreign file" mutant;
       expect_snapshot_error "missing file" (mutant ^ ".does-not-exist"))

let test_session_errors () =
  let design, system = pipeline () in
  let session = Hb_sta.Session.create ~design ~system () in
  let expect_invalid label f =
    match f () with
    | _ -> Alcotest.fail (label ^ ": expected Error.Error")
    | exception Hb_sta.Error.Error (Hb_sta.Error.Invalid _) -> ()
  in
  expect_invalid "unknown instance" (fun () ->
      Hb_sta.Session.apply session
        [ Hb_sta.Edit.Set_delay
            { instance = "no-such-instance"; rise = 1.0; fall = 1.0 } ]);
  expect_invalid "negative delay" (fun () ->
      Hb_sta.Session.apply session
        [ Hb_sta.Edit.Set_delay
            { instance = "whatever"; rise = -1.0; fall = 1.0 } ]);
  expect_invalid "offset out of range" (fun () ->
      Hb_sta.Session.apply session
        [ Hb_sta.Edit.Set_offset { element = 99999; offset = 0.0 } ]);
  (match Hb_sta.Error.wrap (fun () -> Hb_sta.Session.analyse session) with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Hb_sta.Error.to_string e));
  Hb_sta.Session.close session;
  expect_invalid "use after close" (fun () -> Hb_sta.Session.analyse session);
  (* close is idempotent *)
  Hb_sta.Session.close session

(* ------------------------------------------------------------------ *)
(* cache reuse, observed through the telemetry counters               *)
(* ------------------------------------------------------------------ *)

let test_cache_reuse_counters () =
  Hb_util.Telemetry.set_enabled true;
  Hb_util.Telemetry.reset ();
  Fun.protect
    ~finally:(fun () ->
        Hb_util.Telemetry.set_enabled false;
        Hb_util.Telemetry.reset ())
    (fun () ->
       let counter name =
         let snap = Hb_util.Telemetry.snapshot () in
         Option.value ~default:0
           (List.assoc_opt name snap.Hb_util.Telemetry.counters)
       in
       (* Default period: the pipeline meets timing, so analysis cost is
          dominated by cluster evaluation and the dirty-set accounting is
          deterministic. *)
       let design, system = pipeline () in
       let session = Hb_sta.Session.create ~design ~system () in
       let analyse () =
         ignore
           (Hb_sta.Session.analyse ~generate_constraints:false
              ~check_hold:false session)
       in
       analyse ();
       Alcotest.(check int) "one analysis" 1 (counter "session.analyses");
       let evaluated_full = counter "slacks.clusters_evaluated" in
       Alcotest.(check bool) "first run evaluated clusters" true
         (evaluated_full > 0);
       analyse ();
       analyse ();
       Alcotest.(check int) "still one analysis" 1 (counter "session.analyses");
       Alcotest.(check int) "reuses counted" 2
         (counter "session.report_reuses");
       Alcotest.(check int) "no new cluster evaluations" evaluated_full
         (counter "slacks.clusters_evaluated");
       (* One-instance edit: only the touched clusters are re-evaluated. *)
       let instance = path_instance session in
       let _ : Hb_sta.Session.apply_result =
         Hb_sta.Session.apply session
           [ Hb_sta.Edit.Scale_delay { instance; factor = 0.8 } ]
       in
       Alcotest.(check int) "mutation counted" 1 (counter "session.mutations");
       analyse ();
       Alcotest.(check int) "edit forced a new analysis" 2
         (counter "session.analyses");
       let evaluated_incremental =
         counter "slacks.clusters_evaluated" - evaluated_full
       in
       Alcotest.(check bool) "incremental re-analysis evaluated something"
         true
         (evaluated_incremental > 0);
       Alcotest.(check bool)
         (Printf.sprintf
            "incremental evaluations (%d) below the full sweep (%d)"
            evaluated_incremental evaluated_full)
         true
         (evaluated_incremental < evaluated_full);
       Alcotest.(check bool) "cache hits recorded" true
         (counter "slacks.cluster_cache_hits" > 0);
       Hb_sta.Session.close session)

(* ------------------------------------------------------------------ *)
(* serve loop transcript                                              *)
(* ------------------------------------------------------------------ *)

let write_workload_files () =
  let design, system = pipeline ~period:3.0 () in
  let hbn = Filename.temp_file "hb_session" ".hbn" in
  Hb_netlist.Hbn_format.write_file design hbn;
  let hbc = Filename.temp_file "hb_session" ".hbc" in
  let oc = open_out hbc in
  output_string oc (Hb_clock.System.to_string system);
  close_out oc;
  (hbn, hbc)

let reply_status reply =
  match Json.member "status" (Json.parse reply) with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail ("reply without status: " ^ reply)

let reply_error_code reply =
  match Json.member "error" (Json.parse reply) with
  | Some error ->
    (match Json.member "code" error with
     | Some (Json.String code) -> code
     | _ -> Alcotest.fail ("error without code: " ^ reply))
  | None -> Alcotest.fail ("expected an error reply: " ^ reply)

let reply_error_message reply =
  match Json.member "error" (Json.parse reply) with
  | Some error ->
    (match Json.member "message" error with
     | Some (Json.String message) -> message
     | _ -> Alcotest.fail ("error without message: " ^ reply))
  | None -> Alcotest.fail ("expected an error reply: " ^ reply)

let reply_result reply =
  match Json.member "result" (Json.parse reply) with
  | Some result -> result
  | None -> Alcotest.fail ("expected a result: " ^ reply)

let test_serve_transcript () =
  let hbn, hbc = write_workload_files () in
  Fun.protect
    ~finally:(fun () -> Sys.remove hbn; Sys.remove hbc)
    (fun () ->
       let daemon = Hb_sta.Serve.create () in
       let send line = Hb_sta.Serve.handle_line daemon line in
       (* Every reply is a single line carrying the schema version. *)
       let check_envelope reply =
         Alcotest.(check bool) "single line" false (String.contains reply '\n');
         match Json.member "schema_version" (Json.parse reply) with
         | Some (Json.Number v) ->
           Alcotest.(check int) "schema version"
             Hb_sta.Json_export.schema_version (int_of_float v)
         | _ -> Alcotest.fail "reply without schema_version"
       in
       let ok line =
         let reply = send line in
         check_envelope reply;
         Alcotest.(check string) ("ok: " ^ line) "ok" (reply_status reply);
         reply
       in
       let error ~code line =
         let reply = send line in
         check_envelope reply;
         Alcotest.(check string) ("error: " ^ line) "error"
           (reply_status reply);
         Alcotest.(check string) ("code: " ^ line) code
           (reply_error_code reply);
         reply
       in
       ignore (ok {|{"id":1,"method":"ping"}|});
       (* Malformed JSON, unknown methods, bad schema versions and
          queries before load are structured errors, not crashes. *)
       ignore (error ~code:"bad_request" "this is not json");
       ignore (error ~code:"bad_request" {|{"id":2,"method":"frobnicate"}|});
       ignore (error ~code:"bad_request" {|{"id":3}|});
       ignore
         (error ~code:"schema_version"
            {|{"id":4,"method":"ping","schema_version":99}|});
       ignore (error ~code:"no_design" {|{"id":5,"method":"analyse"}|});
       ignore
         (error ~code:"io"
            {|{"id":6,"method":"load","params":{"netlist":"/nonexistent.hbn","clocks":"/nonexistent.hbc"}}|});
       let load =
         Printf.sprintf
           {|{"id":7,"method":"load","params":{"netlist":"%s","clocks":"%s"}}|}
           hbn hbc
       in
       let loaded = reply_result (ok load) in
       Alcotest.(check bool) "clusters reported" true
         (match Json.member "clusters" loaded with
          | Some (Json.Number n) -> n > 0.0
          | _ -> false);
       let analysed = reply_result (ok {|{"id":8,"method":"analyse"}|}) in
       (match Json.member "verdict" analysed with
        | Some (Json.String ("meets_timing" | "slow_paths")) -> ()
        | _ -> Alcotest.fail "analyse result lacks a verdict");
       (match Json.member "schema_version" analysed with
        | Some (Json.Number v) ->
          Alcotest.(check int) "report schema version"
            Hb_sta.Json_export.schema_version (int_of_float v)
        | _ -> Alcotest.fail "report lacks schema_version");
       ignore (ok {|{"id":9,"method":"paths","params":{"limit":2}}|});
       ignore
         (error ~code:"invalid"
            {|{"id":10,"method":"set_delay","params":{"instance":"ghost","rise":1,"fall":1}}|});
       (* A timed-out request is answered in a structured way and the
          daemon keeps serving the same session afterwards. *)
       ignore
         (error ~code:"timeout"
            {|{"id":11,"method":"sleep","params":{"seconds":10},"timeout":0.2}|});
       ignore (ok {|{"id":12,"method":"analyse"}|});
       ignore (ok {|{"id":13,"method":"metrics"}|});
       (* An analysis that runs out of time is answered like any other
          timed-out request. The edit first makes the next analysis a
          real run instead of a cache hit. *)
       let instance =
         let design, _ = pipeline ~period:3.0 () in
         (Hb_netlist.Design.instance design 0).Hb_netlist.Design.inst_name
       in
       ignore
         (ok
            (Printf.sprintf
               {|{"id":14,"method":"scale_delay","params":{"instance":"%s","factor":1.1}}|}
               instance));
       let timeout_message line =
         reply_error_message (error ~code:"timeout" line)
       in
       let analysis_timeout =
         timeout_message {|{"id":15,"method":"analyse","timeout":1e-6}|}
       in
       let sleep_timeout =
         timeout_message
           {|{"id":16,"method":"sleep","params":{"seconds":10},"timeout":1e-6}|}
       in
       Alcotest.(check string) "sleep timeout message"
         "request exceeded its 1e-06s budget" sleep_timeout;
       Alcotest.(check string) "analysis timeout message" sleep_timeout
         analysis_timeout;
       ignore (ok {|{"id":17,"method":"analyse"}|});
       Alcotest.(check bool) "not finished before shutdown" false
         (Hb_sta.Serve.finished daemon);
       ignore (ok {|{"id":18,"method":"shutdown"}|});
       Alcotest.(check bool) "finished after shutdown" true
         (Hb_sta.Serve.finished daemon))

let test_serve_run_channel () =
  let hbn, hbc = write_workload_files () in
  Fun.protect
    ~finally:(fun () -> Sys.remove hbn; Sys.remove hbc)
    (fun () ->
       let requests =
         String.concat "\n"
           [ {|{"id":1,"method":"ping"}|};
             Printf.sprintf
               {|{"id":2,"method":"load","params":{"netlist":"%s","clocks":"%s"}}|}
               hbn hbc;
             {|{"id":3,"method":"analyse","params":{"constraints":false,"hold":false}}|};
             {|{"id":4,"method":"shutdown"}|};
             {|{"id":5,"method":"ping"}|} (* after shutdown: must not run *)
           ]
       in
       let in_path = Filename.temp_file "hb_serve" ".in" in
       let out_path = Filename.temp_file "hb_serve" ".out" in
       Fun.protect
         ~finally:(fun () -> Sys.remove in_path; Sys.remove out_path)
         (fun () ->
            let oc = open_out in_path in
            output_string oc requests;
            output_char oc '\n';
            close_out oc;
            let ic = open_in in_path in
            let oc = open_out out_path in
            let daemon = Hb_sta.Serve.create () in
            Hb_sta.Serve.run daemon ic oc;
            close_in ic;
            close_out oc;
            let ic = open_in out_path in
            let lines = ref [] in
            (try
               while true do
                 lines := input_line ic :: !lines
               done
             with End_of_file -> ());
            close_in ic;
            let lines = List.rev !lines in
            Alcotest.(check int) "four replies (none past shutdown)" 4
              (List.length lines);
            List.iter
              (fun reply ->
                 Alcotest.(check string) "all ok" "ok" (reply_status reply))
              lines))

(* One request id, followed end to end: client-supplied ["request_id"]
   must surface in the reply envelope, the [serve.request] access-log
   event, the telemetry spans the request recorded, and — when the
   request fails — the flight-recorder dump. *)
let test_serve_observability () =
  let hbn, hbc = write_workload_files () in
  let events = ref [] in
  let dumps = ref [] in
  Hb_util.Telemetry.set_enabled true;
  Hb_util.Telemetry.reset ();
  Hb_util.Log.reset ();
  Hb_util.Log.set_level Hb_util.Log.Info;
  Hb_util.Log.set_sink (fun e -> events := e :: !events);
  Fun.protect
    ~finally:(fun () ->
        Hb_util.Log.set_level Hb_util.Log.Off;
        Hb_util.Log.set_sink_default ();
        Hb_util.Log.reset ();
        Hb_util.Telemetry.set_enabled false;
        Hb_util.Telemetry.reset ();
        Sys.remove hbn;
        Sys.remove hbc)
    (fun () ->
       let daemon =
         Hb_sta.Serve.create ~dump:(fun doc -> dumps := doc :: !dumps) ()
       in
       let send line = Hb_sta.Serve.handle_line daemon line in
       let reply_rid reply =
         match Json.member "request_id" (Json.parse reply) with
         | Some (Json.String rid) -> rid
         | _ -> Alcotest.fail ("reply without request_id: " ^ reply)
       in
       (* Generated ids when the client sends none. *)
       let ping = send {|{"id":1,"method":"ping"}|} in
       let generated = reply_rid ping in
       Alcotest.(check bool) "generated id shape" true
         (String.length generated > 1 && generated.[0] = 'r');
       ignore
         (send
            (Printf.sprintf
               {|{"id":2,"method":"load","params":{"netlist":"%s","clocks":"%s"}}|}
               hbn hbc));
       let analyse =
         send {|{"id":3,"method":"analyse","request_id":"obs-1"}|}
       in
       Alcotest.(check string) "client id echoed" "obs-1" (reply_rid analyse);
       Alcotest.(check string) "analyse ok" "ok" (reply_status analyse);
       (* Access log: a serve.request event tagged with the same id. *)
       let field name e =
         match List.assoc_opt name e.Hb_util.Log.fields with
         | Some (Hb_util.Log.String s) -> Some s
         | _ -> None
       in
       let access =
         List.find_opt
           (fun e ->
              e.Hb_util.Log.site = "serve.request"
              && field "request_id" e = Some "obs-1")
           !events
       in
       (match access with
        | None -> Alcotest.fail "no serve.request access-log line for obs-1"
        | Some e ->
          Alcotest.(check (option string)) "access log outcome" (Some "ok")
            (field "outcome" e);
          Alcotest.(check (option string)) "access log method"
            (Some "analyse") (field "method" e));
       (* Trace spans recorded while serving obs-1 carry its id. *)
       let spans = (Hb_util.Telemetry.snapshot ()).Hb_util.Telemetry.spans in
       Alcotest.(check bool) "some span tagged with obs-1" true
         (List.exists
            (fun sp -> sp.Hb_util.Telemetry.tag = Some "obs-1")
            spans);
       (* An error reply triggers a flight dump naming the failed request. *)
       Alcotest.(check int) "no dump while healthy" 0 (List.length !dumps);
       let failed =
         send
           {|{"id":4,"method":"scale_delay","request_id":"obs-bad","params":{"instance":"no-such-instance","factor":1.1}}|}
       in
       Alcotest.(check string) "error reply" "error" (reply_status failed);
       Alcotest.(check string) "error echoes id" "obs-bad" (reply_rid failed);
       (match !dumps with
        | [ doc ] ->
          let flight = Json.parse doc in
          let requests =
            match Json.member "requests" flight with
            | Some (Json.List rs) -> rs
            | _ -> Alcotest.fail "flight dump lacks requests"
          in
          let entry rid =
            List.find_opt
              (fun r -> Json.member "request_id" r = Some (Json.String rid))
              requests
          in
          (match entry "obs-bad" with
           | None -> Alcotest.fail "flight dump misses the failing request"
           | Some r ->
             (match Json.member "outcome" r with
              | Some (Json.String "ok") | None ->
                Alcotest.fail "failing request not marked as an error"
              | Some _ -> ()));
          Alcotest.(check bool) "earlier request retained" true
            (entry "obs-1" <> None);
          (match Json.member "log" flight with
           | Some (Json.List _) -> ()
           | _ -> Alcotest.fail "flight dump lacks log events")
        | dumps ->
          Alcotest.fail
            (Printf.sprintf "expected exactly one dump, got %d"
               (List.length dumps)));
       (* Prometheus exposition through the wire. *)
       let metrics =
         send {|{"id":5,"method":"metrics","params":{"format":"prometheus"}}|}
       in
       (match reply_result metrics with
        | Json.String text ->
          Alcotest.(check bool) "request histogram exposed" true
            (let needle = "# TYPE hb_serve_request_seconds histogram" in
             let n = String.length needle and h = String.length text in
             let rec scan i =
               i + n <= h && (String.sub text i n = needle || scan (i + 1))
             in
             scan 0);
          String.split_on_char '\n' text
          |> List.iter (fun line ->
              if line <> "" && not (String.length line > 0 && line.[0] = '#')
              then
                match String.index_opt line ' ' with
                | None ->
                  Alcotest.fail ("exposition line without value: " ^ line)
                | Some i ->
                  let v = String.sub line (i + 1) (String.length line - i - 1)
                  in
                  (match float_of_string_opt v with
                   | Some _ -> ()
                   | None ->
                     Alcotest.fail ("unparseable sample value: " ^ line)))
        | _ -> Alcotest.fail "prometheus metrics result is not a string");
       ignore (send {|{"id":6,"method":"shutdown"}|}))

(* ------------------------------------------------------------------ *)
(* concurrent serve: shared sessions, admission control, drain        *)
(* ------------------------------------------------------------------ *)

let shared_of reply =
  match Json.member "shared" (reply_result reply) with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.fail ("load reply without shared flag: " ^ reply)

let telemetry_counter name =
  let snap = Hb_util.Telemetry.snapshot () in
  match List.assoc_opt name snap.Hb_util.Telemetry.counters with
  | Some v -> v
  | None -> 0

let with_telemetry f =
  Hb_util.Telemetry.reset ();
  Hb_util.Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
        Hb_util.Telemetry.set_enabled false;
        Hb_util.Telemetry.reset ())
    f

let test_serve_shared_session () =
  with_telemetry (fun () ->
      let daemon =
        Hb_sta.Serve.create
          ~generators:[ ("pipe", fun () -> pipeline ~period:3.0 ()) ]
          ()
      in
      let sched =
        Hb_sta.Serve.start_scheduler daemon ~workers:2 ~queue_capacity:8
      in
      let a = Hb_sta.Serve.client daemon in
      let b = Hb_sta.Serve.client daemon in
      let send client line = Hb_sta.Serve.submit sched client line in
      let load = {|{"id":1,"method":"load","params":{"generator":"pipe"}}|} in
      let ra = send a load in
      Alcotest.(check string) "first load ok" "ok" (reply_status ra);
      Alcotest.(check bool) "first load is fresh" false (shared_of ra);
      let rb = send b load in
      Alcotest.(check string) "second load ok" "ok" (reply_status rb);
      Alcotest.(check bool) "second load shares the session" true
        (shared_of rb);
      Alcotest.(check bool) "share counted" true
        (telemetry_counter "serve.sessions_shared" >= 1);
      (* One resident session serves both clients: the second analyse is
         answered from the shared cache, not recomputed. *)
      let q =
        {|{"id":2,"method":"analyse","params":{"constraints":false,"hold":false}}|}
      in
      Alcotest.(check string) "a analyses" "ok" (reply_status (send a q));
      Alcotest.(check string) "b analyses" "ok" (reply_status (send b q));
      Alcotest.(check int) "one analysis for two clients" 1
        (telemetry_counter "session.analyses");
      (* While the scheduler owns the domains, a load asking for its own
         pool parallelism is refused rather than silently raced. *)
      Alcotest.(check string) "jobs>1 rejected under scheduler" "bad_request"
        (reply_error_code
           (send a
              {|{"id":3,"method":"load","params":{"generator":"pipe","jobs":4}}|}));
      Hb_sta.Serve.release_client daemon a;
      Hb_sta.Serve.release_client daemon b;
      Hb_sta.Serve.stop_scheduler sched;
      Hb_sta.Serve.shutdown_sessions daemon)

let test_serve_admission () =
  with_telemetry (fun () ->
      let daemon = Hb_sta.Serve.create () in
      let sched =
        Hb_sta.Serve.start_scheduler daemon ~workers:1 ~queue_capacity:1
      in
      let c1 = Hb_sta.Serve.client daemon in
      let c2 = Hb_sta.Serve.client daemon in
      let c3 = Hb_sta.Serve.client daemon in
      let r1 = ref "" and r2 = ref "" in
      (* Fill the worker with a sleep, then the queue (capacity 1) with
         a second one; the third client must get an immediate
         structured [overloaded], not a stall. *)
      let t1 =
        Thread.create
          (fun () ->
             r1 :=
               Hb_sta.Serve.submit sched c1
                 {|{"id":1,"method":"sleep","params":{"seconds":0.4}}|})
          ()
      in
      Thread.delay 0.1;
      let t2 =
        Thread.create
          (fun () ->
             r2 :=
               Hb_sta.Serve.submit sched c2
                 {|{"id":2,"method":"sleep","params":{"seconds":0.1}}|})
          ()
      in
      Thread.delay 0.1;
      let rejected =
        Hb_sta.Serve.submit sched c3 {|{"id":3,"method":"ping"}|}
      in
      Alcotest.(check string) "rejected is an error" "error"
        (reply_status rejected);
      Alcotest.(check string) "overloaded code" "overloaded"
        (reply_error_code rejected);
      Thread.join t1;
      Thread.join t2;
      Alcotest.(check string) "first sleep served" "ok" (reply_status !r1);
      Alcotest.(check string) "queued sleep served" "ok" (reply_status !r2);
      Alcotest.(check bool) "rejection counted" true
        (telemetry_counter "serve.rejected" >= 1);
      Hb_sta.Serve.stop_scheduler sched;
      Hb_sta.Serve.shutdown_sessions daemon)

let test_serve_drain () =
  let daemon = Hb_sta.Serve.create () in
  let sched =
    Hb_sta.Serve.start_scheduler daemon ~workers:1 ~queue_capacity:4
  in
  let c = Hb_sta.Serve.client daemon in
  Alcotest.(check string) "ping before shutdown" "ok"
    (reply_status (Hb_sta.Serve.submit sched c {|{"id":1,"method":"ping"}|}));
  Alcotest.(check string) "shutdown ok" "ok"
    (reply_status
       (Hb_sta.Serve.submit sched c {|{"id":2,"method":"shutdown"}|}));
  Alcotest.(check bool) "daemon finished" true (Hb_sta.Serve.finished daemon);
  Alcotest.(check string) "late request refused" "shutting_down"
    (reply_error_code
       (Hb_sta.Serve.submit sched c {|{"id":3,"method":"ping"}|}));
  Hb_sta.Serve.stop_scheduler sched;
  Hb_sta.Serve.shutdown_sessions daemon;
  (* The SIGTERM path: request_stop drains exactly like a client-issued
     shutdown. *)
  let daemon = Hb_sta.Serve.create () in
  let sched =
    Hb_sta.Serve.start_scheduler daemon ~workers:1 ~queue_capacity:4
  in
  let c = Hb_sta.Serve.client daemon in
  Hb_sta.Serve.request_stop daemon;
  Alcotest.(check bool) "finished after request_stop" true
    (Hb_sta.Serve.finished daemon);
  Alcotest.(check string) "refused after request_stop" "shutting_down"
    (reply_error_code
       (Hb_sta.Serve.submit sched c {|{"id":4,"method":"ping"}|}));
  Hb_sta.Serve.stop_scheduler sched;
  Hb_sta.Serve.shutdown_sessions daemon

(* Distinct instances carrying timing arcs, for disjoint edit sets. *)
let path_instances session n =
  let ctx = Hb_sta.Session.context session in
  let design = ctx.Hb_sta.Context.design in
  let name inst =
    (Hb_netlist.Design.instance design inst).Hb_netlist.Design.inst_name
  in
  let via =
    Hb_sta.Session.worst_paths session ~limit:50
    |> List.concat_map (fun (p : Hb_sta.Paths.path) -> p.Hb_sta.Paths.hops)
    |> List.filter_map (fun (h : Hb_sta.Paths.hop) -> h.Hb_sta.Paths.via)
  in
  let arcs =
    ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters
    |> Array.to_list
    |> List.concat_map (fun (cluster : Hb_sta.Cluster.t) ->
        Array.to_list cluster.Hb_sta.Cluster.arc_inst)
  in
  let uniq = List.sort_uniq compare (via @ arcs) in
  if List.length uniq < n then
    Alcotest.fail
      (Printf.sprintf "need %d instances with arcs, design has %d" n
         (List.length uniq));
  List.filteri (fun i _ -> i < n) uniq |> List.map name

(* The acceptance bar for shared sessions: interleaved mutations and
   reads from two concurrent clients must leave the session in exactly
   the state the same edits produce serially — the final report
   (everything but the wall-clock timings) compares equal, text for
   text. Disjoint instance sets make the edits commute. *)
let test_serve_concurrent_parity () =
  let design, system = pipeline ~period:3.0 () in
  let probe = Hb_sta.Session.create ~design ~system () in
  let instances = path_instances probe 4 in
  Hb_sta.Session.close probe;
  let edits_a =
    [ (List.nth instances 0, 0.9); (List.nth instances 1, 1.15) ]
  in
  let edits_b =
    [ (List.nth instances 2, 0.8); (List.nth instances 3, 1.2) ]
  in
  let scale i (instance, factor) =
    Printf.sprintf
      {|{"id":%d,"method":"scale_delay","params":{"instance":"%s","factor":%g}}|}
      i instance factor
  in
  let analyse =
    {|{"id":99,"method":"analyse","params":{"constraints":false,"hold":false}}|}
  in
  let final_report send =
    let reply = send analyse in
    Alcotest.(check string) "final analyse ok" "ok" (reply_status reply);
    match reply_result reply with
    | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> k <> "timings") fields)
    | _ -> Alcotest.fail "analyse result is not an object"
  in
  let generators = [ ("pipe", fun () -> pipeline ~period:3.0 ()) ] in
  let load = {|{"id":1,"method":"load","params":{"generator":"pipe"}}|} in
  (* Serial reference: one client applies all four edits, then reads. *)
  let serial =
    let daemon = Hb_sta.Serve.create ~generators () in
    let send line = Hb_sta.Serve.handle_line daemon line in
    Alcotest.(check string) "serial load" "ok" (reply_status (send load));
    List.iteri
      (fun i e ->
         Alcotest.(check string) "serial edit" "ok"
           (reply_status (send (scale (10 + i) e))))
      (edits_a @ edits_b);
    let report = final_report send in
    ignore (send {|{"id":100,"method":"shutdown"}|});
    report
  in
  (* Concurrent: two clients interleave the same edits with reads on
     the shared session behind a two-worker scheduler. *)
  let concurrent =
    let daemon = Hb_sta.Serve.create ~generators () in
    let sched =
      Hb_sta.Serve.start_scheduler daemon ~workers:2 ~queue_capacity:16
    in
    let run edits () =
      let c = Hb_sta.Serve.client daemon in
      Alcotest.(check string) "concurrent load" "ok"
        (reply_status (Hb_sta.Serve.submit sched c load));
      List.iteri
        (fun i e ->
           Alcotest.(check string) "concurrent edit" "ok"
             (reply_status (Hb_sta.Serve.submit sched c (scale (20 + i) e)));
           (* An interleaved read: must be a well-formed ok report no
              matter what the other client has mutated so far. *)
           Alcotest.(check string) "interleaved analyse" "ok"
             (reply_status (Hb_sta.Serve.submit sched c analyse)))
        edits;
      Hb_sta.Serve.release_client daemon c
    in
    let ta = Thread.create (run edits_a) () in
    let tb = Thread.create (run edits_b) () in
    Thread.join ta;
    Thread.join tb;
    let c = Hb_sta.Serve.client daemon in
    Alcotest.(check string) "final load ok" "ok"
      (reply_status (Hb_sta.Serve.submit sched c load));
    let report =
      final_report (fun line -> Hb_sta.Serve.submit sched c line)
    in
    Hb_sta.Serve.release_client daemon c;
    Hb_sta.Serve.stop_scheduler sched;
    Hb_sta.Serve.shutdown_sessions daemon;
    report
  in
  Alcotest.(check string) "concurrent final report equals serial"
    (Json.to_string serial) (Json.to_string concurrent)

(* A timing file carries analysis settings only. A log-level line is
   an unknown directive, so a load naming such a file is a parse error
   and leaves the daemon's log threshold where its flags put it. *)
let test_serve_load_log_level () =
  let hbn, hbc = write_workload_files () in
  let hbt = Filename.temp_file "hb_session" ".hbt" in
  Hb_util.Text.write_atomic hbt "log-level debug\n";
  Fun.protect
    ~finally:(fun () ->
        Hb_util.Log.set_level Hb_util.Log.Off;
        List.iter Sys.remove [ hbn; hbc; hbt ])
    (fun () ->
       let daemon = Hb_sta.Serve.create () in
       let reply =
         Hb_sta.Serve.handle_line daemon
           (Printf.sprintf
              {|{"id":1,"method":"load","params":{"netlist":"%s","clocks":"%s","timing":"%s"}}|}
              hbn hbc hbt)
       in
       Alcotest.(check string) "load refused" "parse" (reply_error_code reply);
       Alcotest.(check bool) "log level still off" true
         (Hb_util.Log.level () = Hb_util.Log.Off))

(* A request line nested a million levels deep is refused at the first
   level past the parser's cap, without reading the rest of it. *)
let test_serve_deep_nesting () =
  let daemon = Hb_sta.Serve.create () in
  let depth = 1_000_000 in
  let line = String.make depth '[' ^ String.make depth ']' in
  let t0 = Unix.gettimeofday () in
  let reply = Hb_sta.Serve.handle_line daemon line in
  let seconds = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "code" "bad_request" (reply_error_code reply);
  Alcotest.(check string) "message"
    "malformed request at byte 512: nesting deeper than 512"
    (reply_error_message reply);
  if seconds > 0.5 then Alcotest.failf "the reply took %.2f s" seconds

(* The four single-edit methods keep their own reply shapes, and each
   leaves the session exactly where the equivalent "edit" batch does. *)
let test_serve_single_edit_replies () =
  let design, system =
    Hb_workload.Pipelines.two_phase ~width:3 ~stages:3 ~gates_per_stage:12 ()
  in
  let probe = Hb_sta.Session.create ~design ~system () in
  let instances = path_instances probe 4 in
  let elements = (Hb_sta.Session.context probe).Hb_sta.Context.elements in
  let element =
    let rec first e =
      if e >= Hb_sta.Elements.count elements then
        Alcotest.fail "no adjustable element"
      else if
        Hb_sync.Element.is_boundary (Hb_sta.Elements.element elements e)
      then first (e + 1)
      else e
    in
    first 0
  in
  let requested = 1000.0 in
  let _ : Hb_sta.Session.apply_result =
    Hb_sta.Session.apply probe
      [ Hb_sta.Edit.Set_offset { element; offset = requested } ]
  in
  let clamped =
    Hb_sync.Element.o_dz (Hb_sta.Elements.element elements element)
  in
  Hb_sta.Session.close probe;
  Alcotest.(check bool) "request lies past the window" true
    (clamped <> requested);
  let inst i = List.nth instances i in
  let file_text = Printf.sprintf "scale %s 1.2" (inst 3) in
  let hbd = Filename.temp_file "hb_session" ".hbd" in
  let oc = open_out hbd in
  output_string oc file_text;
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove hbd)
    (fun () ->
       let daemon () =
         let generators = [ ("pipe", fun () -> (design, system)) ] in
         let d = Hb_sta.Serve.create ~generators () in
         let send line = Hb_sta.Serve.handle_line d line in
         Alcotest.(check string) "load" "ok"
           (reply_status
              (send {|{"id":1,"method":"load","params":{"generator":"pipe"}}|}));
         send
       in
       let single = daemon () in
       let batch = daemon () in
       let report send =
         let reply = send {|{"id":2,"method":"analyse"}|} in
         Alcotest.(check string) "analyse ok" "ok" (reply_status reply);
         match reply_result reply with
         | Json.Obj fields ->
           Json.to_string
             (Json.Obj (List.filter (fun (k, _) -> k <> "timings") fields))
         | _ -> Alcotest.fail "analyse result is not an object"
       in
       let step ~meth ~params ~command expected =
         let reply =
           single
             (Printf.sprintf {|{"id":3,"method":"%s","params":%s}|} meth params)
         in
         Alcotest.(check string) (meth ^ " ok") "ok" (reply_status reply);
         Alcotest.(check string) (meth ^ " reply") expected
           (Json.to_string (reply_result reply));
         Alcotest.(check string) (meth ^ " batch ok") "ok"
           (reply_status
              (batch
                 (Printf.sprintf
                    {|{"id":4,"method":"edit","params":{"commands":[%s]}}|}
                    command)));
         Alcotest.(check string) (meth ^ " matches the batch") (report batch)
           (report single)
       in
       let delay =
         Printf.sprintf {|"instance":"%s","rise":0.9,"fall":1.1|} (inst 0)
       in
       step ~meth:"set_delay" ~params:("{" ^ delay ^ "}")
         ~command:({|{"op":"set_delay",|} ^ delay ^ "}")
         (Printf.sprintf {|{"instance":"%s"}|} (inst 0));
       let scale = Printf.sprintf {|"instance":"%s","factor":0.7|} (inst 1) in
       step ~meth:"scale_delay" ~params:("{" ^ scale ^ "}")
         ~command:({|{"op":"scale_delay",|} ^ scale ^ "}")
         (Printf.sprintf {|{"instance":"%s"}|} (inst 1));
       let text =
         Printf.sprintf {|"text":"scale %s 0.6\ndelay ghost rise 1 fall 1"|}
           (inst 2)
       in
       step ~meth:"annotate" ~params:("{" ^ text ^ "}")
         ~command:({|{"op":"annotate",|} ^ text ^ "}")
         {|{"entries":2,"unused":["ghost"]}|};
       step ~meth:"annotate"
         ~params:(Printf.sprintf {|{"file":"%s"}|} hbd)
         ~command:(Printf.sprintf {|{"op":"annotate","text":"%s"}|} file_text)
         {|{"entries":1,"unused":[]}|};
       let both =
         single
           (Printf.sprintf
              {|{"id":5,"method":"annotate","params":{"text":"scale %s 2","file":"%s"}}|}
              (inst 0) hbd)
       in
       Alcotest.(check string) "text and file" "bad_request"
         (reply_error_code both);
       let offset =
         Printf.sprintf {|"element":%d,"value":%g|} element requested
       in
       step ~meth:"set_offset" ~params:("{" ^ offset ^ "}")
         ~command:({|{"op":"set_offset",|} ^ offset ^ "}")
         (Json.to_string
            (Json.Obj
               [ ("element", Json.Number (float_of_int element));
                 ("offset", Json.Number clamped) ]));
       ignore (single {|{"id":6,"method":"shutdown"}|});
       ignore (batch {|{"id":6,"method":"shutdown"}|}))

(* ------------------------------------------------------------------ *)
(* Error, Timeout, preprocess timings, Json                           *)
(* ------------------------------------------------------------------ *)

let test_error_classifier () =
  let check_code label expected exn =
    match Hb_sta.Error.of_exn exn with
    | Some err ->
      Alcotest.(check string) label expected (Hb_sta.Error.code err)
    | None -> Alcotest.fail (label ^ ": not classified")
  in
  check_code "failure" "invalid" (Failure "boom");
  check_code "sys_error" "io" (Sys_error "gone");
  check_code "build" "build" (Hb_sta.Elements.Build_error "b");
  check_code "cycle" "cycle" (Hb_sta.Cluster.Cycle_error "c");
  check_code "pass" "pass" (Hb_sta.Passes.Pass_error "p");
  check_code "timeout" "timeout" (Hb_util.Timeout.Timeout 1.5);
  check_code "parse" "parse"
    (Hb_netlist.Hbn_format.Parse_error { line = 3; message = "bad" });
  Alcotest.(check bool) "unknown exceptions stay unknown" true
    (Hb_sta.Error.of_exn Not_found = None);
  let located =
    Hb_sta.Error.in_file "des.hbn"
      (Hb_sta.Error.Parse { file = None; line = 12; message = "unknown cell" })
  in
  Alcotest.(check string) "file attached"
    "parse error: des.hbn:12: unknown cell"
    (Hb_sta.Error.to_string located);
  (match
     Hb_sta.Error.wrap (fun () ->
         Hb_sta.Error.reading "t.hbt" (fun () ->
             Hb_sta.Config_format.parse "rise-fall maybe\n"))
   with
   | Error err ->
     Alcotest.(check string) "reading names the file"
       "parse error: t.hbt:1: rise-fall: expected on/off, got \"maybe\""
       (Hb_sta.Error.to_string err)
   | Ok _ -> Alcotest.fail "reading should raise");
  (match Hb_sta.Error.wrap (fun () -> 41 + 1) with
   | Ok v -> Alcotest.(check int) "wrap ok" 42 v
   | Error _ -> Alcotest.fail "wrap should succeed");
  (match Hb_sta.Error.wrap (fun () -> failwith "nope") with
   | Ok _ -> Alcotest.fail "wrap should classify"
   | Error err ->
     Alcotest.(check string) "wrap code" "invalid" (Hb_sta.Error.code err))

(* Budgets are deadline-based, polled at pass boundaries: guarded work
   only times out where it calls [Timeout.check], which is what this
   spin loop stands in for. *)
let busy_wait seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  while Unix.gettimeofday () < deadline do
    Hb_util.Timeout.check ();
    ignore (Sys.opaque_identity 0)
  done

let test_timeout_helper () =
  Alcotest.(check int) "fast call unaffected" 7
    (Hb_util.Timeout.with_timeout ~seconds:5.0 (fun () -> 7));
  Alcotest.(check int) "non-positive budget means no limit" 9
    (Hb_util.Timeout.with_timeout ~seconds:0.0 (fun () -> 9));
  (* Unguarded code never times out: check is a no-op with no budget. *)
  Hb_util.Timeout.check ();
  Alcotest.(check bool) "no budget outside a guard" true
    (Hb_util.Timeout.remaining () = None);
  (match
     Hb_util.Timeout.with_timeout ~seconds:0.1 (fun () ->
         busy_wait 10.0;
         "finished")
   with
   | _ -> Alcotest.fail "expected a timeout"
   | exception Hb_util.Timeout.Timeout s ->
     Alcotest.(check bool) "budget carried" true (s = 0.1));
  (* The budget is cleared afterwards: slow work outside the guard is
     safe, and a second guarded call still works. *)
  busy_wait 0.15;
  Alcotest.(check int) "reusable after firing" 3
    (Hb_util.Timeout.with_timeout ~seconds:5.0 (fun () -> 3));
  (* Nesting keeps the tighter deadline: a generous inner budget cannot
     extend a tight outer one, and the outer budget is the one the
     exception reports. *)
  (match
     Hb_util.Timeout.with_timeout ~seconds:0.2 (fun () ->
         Hb_util.Timeout.with_timeout ~seconds:5.0 (fun () ->
             busy_wait 10.0;
             "finished"))
   with
   | _ -> Alcotest.fail "expected the nested call to time out"
   | exception Hb_util.Timeout.Timeout s ->
     Alcotest.(check bool) "outer budget wins" true (s = 0.2));
  Alcotest.(check int) "reusable after nested firing" 4
    (Hb_util.Timeout.with_timeout ~seconds:5.0 (fun () -> 4))

(* The preprocess cost is charged to the first report of the process
   that paid it: a warm restore and a re-analysis after an edit report
   0 on both clocks. *)
let test_preprocess_shape () =
  let design, system = pipeline () in
  let session = Hb_sta.Session.create ~design ~system () in
  let check_unpaid label (report : Hb_sta.Session.report) =
    let timings = report.Hb_sta.Session.timings in
    Alcotest.(check (float 0.0)) (label ^ ": cpu") 0.0
      timings.Hb_sta.Session.preprocess_seconds;
    Alcotest.(check (float 0.0)) (label ^ ": wall") 0.0
      timings.Hb_sta.Session.preprocess_wall_seconds
  in
  let first = (Hb_sta.Session.analyse session).Hb_sta.Session.timings in
  Alcotest.(check bool) "first report carries the preprocess cost" true
    (first.Hb_sta.Session.preprocess_wall_seconds > 0.0
     && first.Hb_sta.Session.preprocess_seconds >= 0.0);
  let path = Filename.temp_file "hb_snap" ".hbs" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
       Hb_sta.Session.save_snapshot session ~path;
       let restored = Hb_sta.Session.of_snapshot ~path in
       check_unpaid "warm restore" (Hb_sta.Session.analyse restored);
       Hb_sta.Session.close restored);
  let instance = path_instance session in
  let _ : Hb_sta.Session.apply_result =
    Hb_sta.Session.apply session
      [ Hb_sta.Edit.Scale_delay { instance; factor = 0.9 } ]
  in
  check_unpaid "after an edit" (Hb_sta.Session.analyse session);
  Hb_sta.Session.close session

let test_json_round_trip () =
  let text =
    {|{"a":[1,2.5,"x",null,true,false],"b":{"nested":"q\"uo\\te"},"n":-0.125}|}
  in
  let value = Json.parse text in
  Alcotest.(check string) "compact round trip" text (Json.to_string value);
  let reparsed = Json.parse (Json.to_string value) in
  Alcotest.(check bool) "stable" true (reparsed = value);
  (match Json.member "n" value with
   | Some (Json.Number n) ->
     Alcotest.(check bool) "number read" true (n = -0.125)
   | _ -> Alcotest.fail "missing member");
  (match Json.parse_result "{\"a\": }" with
   | Ok _ -> Alcotest.fail "should reject"
   | Error _ -> ());
  (match Json.parse_result "[1,2] trailing" with
   | Ok _ -> Alcotest.fail "should reject trailing garbage"
   | Error _ -> ());
  Alcotest.(check string) "unicode escape decodes to utf8"
    {|["é"]|}
    (Json.to_string (Json.parse {|["é"]|}))

let () =
  Alcotest.run "session"
    [ ("parity",
       [ Alcotest.test_case "scale and fixed edits" `Quick
           test_whatif_scale_parity;
         Alcotest.test_case "annotation batch" `Quick
           test_whatif_annotation_parity;
         Alcotest.test_case "skewed cell = fresh context" `Quick
           test_whatif_skewed_cell_parity;
         Alcotest.test_case "rewired pin refused" `Quick
           test_refresh_rejects_rewired_pin;
         Alcotest.test_case "annotate every instance" `Quick
           test_annotate_every_instance;
         Alcotest.test_case "repeated queries stable" `Quick
           test_repeated_queries_stable;
         Alcotest.test_case "offset edits deterministic" `Quick
           test_set_offset_deterministic ]);
      ("eco",
       [ Alcotest.test_case "insert buffer" `Quick test_eco_insert_buffer;
         Alcotest.test_case "resize gate" `Quick test_eco_resize_gate;
         Alcotest.test_case "remove gate" `Quick test_eco_remove_gate;
         Alcotest.test_case "rewire net" `Quick test_eco_rewire_net;
         Alcotest.test_case "rejected batch is atomic" `Quick
           test_eco_atomicity;
         Alcotest.test_case "control cone rejected" `Quick
           test_eco_control_cone_rejected;
         Alcotest.test_case "cycle rejected" `Quick test_eco_cycle_rejected;
         Alcotest.test_case "batch names in one walk" `Quick
           test_eco_batch_names;
         Alcotest.test_case "update = extract" `Quick
           test_eco_update_equals_extract ]);
      ("snapshot",
       [ Alcotest.test_case "round trip" `Quick test_snapshot_round_trip;
         Alcotest.test_case "corruption" `Quick test_snapshot_corruption ]);
      ("errors",
       [ Alcotest.test_case "session misuse" `Quick test_session_errors;
         Alcotest.test_case "classifier" `Quick test_error_classifier ]);
      ("cache",
       [ Alcotest.test_case "reuse counters" `Quick test_cache_reuse_counters ]);
      ("serve",
       [ Alcotest.test_case "transcript" `Quick test_serve_transcript;
         Alcotest.test_case "run channel" `Quick test_serve_run_channel;
         Alcotest.test_case "observability" `Quick test_serve_observability;
         Alcotest.test_case "single-edit replies" `Quick
           test_serve_single_edit_replies;
         Alcotest.test_case "deep nesting" `Quick test_serve_deep_nesting;
         Alcotest.test_case "load rejects log-level" `Quick
           test_serve_load_log_level ]);
      ("concurrent",
       [ Alcotest.test_case "shared session" `Quick test_serve_shared_session;
         Alcotest.test_case "admission control" `Quick test_serve_admission;
         Alcotest.test_case "graceful drain" `Quick test_serve_drain;
         Alcotest.test_case "parity vs serial" `Quick
           test_serve_concurrent_parity ]);
      ("util",
       [ Alcotest.test_case "timeout helper" `Quick test_timeout_helper;
         Alcotest.test_case "preprocess shape" `Quick test_preprocess_shape;
         Alcotest.test_case "json round trip" `Quick test_json_round_trip ]);
    ]
