(* Tests for hb_netlist: builder validation, design queries, the .hbn
   format, statistics and hierarchical collapse. *)

let lib = Hb_cell.Library.default ()

let check_float = Alcotest.(check (float 1e-9))

(* A small reference design: clk -> dff -> inv -> dff -> out. *)
let small_design () =
  let b = Hb_netlist.Builder.create ~name:"small" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"clk" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:true;
  Hb_netlist.Builder.add_port b ~name:"din" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_port b ~name:"dout" ~direction:Hb_netlist.Design.Port_out
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"ff1" ~cell:"dff"
    ~connections:[ ("d", "din"); ("ck", "clk"); ("q", "n1") ] ();
  Hb_netlist.Builder.add_instance b ~name:"u1" ~cell:"inv_x1"
    ~connections:[ ("a", "n1"); ("y", "n2") ] ();
  Hb_netlist.Builder.add_instance b ~name:"ff2" ~cell:"dff"
    ~connections:[ ("d", "n2"); ("ck", "clk"); ("q", "dout") ] ();
  Hb_netlist.Builder.freeze b

let test_builder_basic () =
  let d = small_design () in
  Alcotest.(check int) "instances" 3 (Hb_netlist.Design.instance_count d);
  Alcotest.(check int) "ports" 3 (Hb_netlist.Design.port_count d);
  Alcotest.(check int) "nets" 5 (Hb_netlist.Design.net_count d);
  Alcotest.(check (list int)) "sync instances" [ 0; 2 ]
    (Hb_netlist.Design.sync_instances d);
  Alcotest.(check (list int)) "comb instances" [ 1 ]
    (Hb_netlist.Design.comb_instances d)

let test_builder_duplicate_port () =
  let b = Hb_netlist.Builder.create ~name:"x" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"p" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  (match
     Hb_netlist.Builder.add_port b ~name:"p"
       ~direction:Hb_netlist.Design.Port_in ~is_clock:false
   with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "expected duplicate port rejection")

let test_builder_unknown_cell () =
  let b = Hb_netlist.Builder.create ~name:"x" ~library:lib in
  (match
     Hb_netlist.Builder.add_instance b ~name:"u" ~cell:"not_a_cell"
       ~connections:[] ()
   with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "expected unknown cell rejection")

let test_builder_unknown_pin () =
  let b = Hb_netlist.Builder.create ~name:"x" ~library:lib in
  (match
     Hb_netlist.Builder.add_instance b ~name:"u" ~cell:"inv_x1"
       ~connections:[ ("zz", "n") ] ()
   with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "expected unknown pin rejection")

let expect_freeze_failure name build =
  let b = Hb_netlist.Builder.create ~name:"x" ~library:lib in
  build b;
  match Hb_netlist.Builder.freeze b with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected freeze failure")

let test_freeze_undriven_net () =
  expect_freeze_failure "undriven input" (fun b ->
      Hb_netlist.Builder.add_instance b ~name:"u" ~cell:"inv_x1"
        ~connections:[ ("a", "floating"); ("y", "n") ] ())

let test_freeze_unconnected_input () =
  expect_freeze_failure "unconnected input pin" (fun b ->
      Hb_netlist.Builder.add_port b ~name:"i" ~direction:Hb_netlist.Design.Port_in
        ~is_clock:false;
      Hb_netlist.Builder.add_instance b ~name:"u" ~cell:"nand2_x1"
        ~connections:[ ("a", "i"); ("y", "n") ] ())

let test_freeze_multiple_drivers () =
  expect_freeze_failure "two gate drivers" (fun b ->
      Hb_netlist.Builder.add_port b ~name:"i" ~direction:Hb_netlist.Design.Port_in
        ~is_clock:false;
      Hb_netlist.Builder.add_instance b ~name:"u1" ~cell:"inv_x1"
        ~connections:[ ("a", "i"); ("y", "shared") ] ();
      Hb_netlist.Builder.add_instance b ~name:"u2" ~cell:"inv_x1"
        ~connections:[ ("a", "i"); ("y", "shared") ] ())

let test_freeze_tristate_bus_ok () =
  let b = Hb_netlist.Builder.create ~name:"bus" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"en1" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:true;
  Hb_netlist.Builder.add_port b ~name:"en2" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:true;
  Hb_netlist.Builder.add_port b ~name:"a" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_port b ~name:"bv" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"t1" ~cell:"tsbuf"
    ~connections:[ ("d", "a"); ("ck", "en1"); ("q", "bus") ] ();
  Hb_netlist.Builder.add_instance b ~name:"t2" ~cell:"tsbuf"
    ~connections:[ ("d", "bv"); ("ck", "en2"); ("q", "bus") ] ();
  let d = Hb_netlist.Builder.freeze b in
  (match Hb_netlist.Design.find_net d "bus" with
   | Some net ->
     Alcotest.(check int) "two tristate drivers" 2
       (List.length (Hb_netlist.Design.net d net).Hb_netlist.Design.drivers)
   | None -> Alcotest.fail "bus net missing")

let test_freeze_undriven_output_port () =
  expect_freeze_failure "undriven output port" (fun b ->
      Hb_netlist.Builder.add_port b ~name:"o" ~direction:Hb_netlist.Design.Port_out
        ~is_clock:false)

let test_net_load_capacitance () =
  let d = small_design () in
  (match Hb_netlist.Design.find_net d "n1" with
   | Some net ->
     (* inv_x1 'a' pin is 0.010 pF plus 0.015 wire per load. *)
     check_float "n1 load" 0.025
       (Hb_netlist.Design.net d net).Hb_netlist.Design.load_capacitance
   | None -> Alcotest.fail "n1 missing")

let test_design_lookups () =
  let d = small_design () in
  Alcotest.(check bool) "find instance" true
    (Hb_netlist.Design.find_instance d "u1" <> None);
  Alcotest.(check bool) "missing instance" true
    (Hb_netlist.Design.find_instance d "zz" = None);
  Alcotest.(check bool) "find port" true (Hb_netlist.Design.find_port d "clk" <> None);
  Alcotest.(check (list int)) "clock ports" [ 0 ] (Hb_netlist.Design.clock_ports d)

let test_net_of_pin () =
  let d = small_design () in
  let inst =
    match Hb_netlist.Design.find_instance d "u1" with
    | Some i -> i
    | None -> Alcotest.fail "u1 missing"
  in
  (match Hb_netlist.Design.net_of_pin d ~inst ~pin:"a" with
   | Some net ->
     Alcotest.(check string) "input net" "n1"
       (Hb_netlist.Design.net d net).Hb_netlist.Design.net_name
   | None -> Alcotest.fail "pin a unconnected");
  Alcotest.(check bool) "unknown pin" true
    (Hb_netlist.Design.net_of_pin d ~inst ~pin:"zz" = None)

let test_endpoint_rendering () =
  let d = small_design () in
  Alcotest.(check string) "pin endpoint" "u1.a"
    (Hb_netlist.Design.endpoint_to_string d
       (Hb_netlist.Design.Pin { inst = 1; pin = "a" }));
  Alcotest.(check string) "port endpoint" "port clk"
    (Hb_netlist.Design.endpoint_to_string d (Hb_netlist.Design.Port 0))

let test_stats () =
  let d = small_design () in
  let s = Hb_netlist.Stats.compute d in
  Alcotest.(check int) "cells" 3 s.Hb_netlist.Stats.cells;
  Alcotest.(check int) "comb" 1 s.Hb_netlist.Stats.combinational;
  Alcotest.(check int) "sync" 2 s.Hb_netlist.Stats.synchronisers;
  Alcotest.(check int) "nets" 5 s.Hb_netlist.Stats.nets;
  check_float "area" 13.0 s.Hb_netlist.Stats.area;
  Alcotest.(check (list (pair string int))) "by kind"
    [ ("dff", 2); ("inv", 1) ] s.Hb_netlist.Stats.by_kind

let test_hbn_round_trip () =
  let d = small_design () in
  let text = Hb_netlist.Hbn_format.write d in
  let d2 = Hb_netlist.Hbn_format.parse ~library:lib text in
  Alcotest.(check string) "same text after round trip" text
    (Hb_netlist.Hbn_format.write d2)

let test_hbn_parse_example () =
  let text =
    "# a comment\n\
     design counter\n\
     port in clk clock\n\
     port in din\n\
     port out q\n\
     inst u1 dff d=din ck=clk q=q\n\
     end\n"
  in
  let d = Hb_netlist.Hbn_format.parse ~library:lib text in
  Alcotest.(check string) "name" "counter" d.Hb_netlist.Design.design_name;
  Alcotest.(check int) "instances" 1 (Hb_netlist.Design.instance_count d)

let expect_parse_error ~line text =
  match Hb_netlist.Hbn_format.parse ~library:lib text with
  | exception Hb_netlist.Hbn_format.Parse_error { line = got; message = _ } ->
    Alcotest.(check int) "error line" line got
  | _ -> Alcotest.fail "expected parse error"

let test_hbn_errors () =
  expect_parse_error ~line:1 "inst u1 dff d=a\n";
  expect_parse_error ~line:2 "design d\nport sideways x\nend\n";
  expect_parse_error ~line:2 "design d\ninst u1 nonexistent a=b\nend\n";
  expect_parse_error ~line:3 "design d\nport in x\nwhatever\nend\n";
  expect_parse_error ~line:2 "design d\ninst u1 inv_x1 a=\nend\n"

let test_hbn_missing_end () =
  match Hb_netlist.Hbn_format.parse ~library:lib "design d\nport in x\n" with
  | exception Hb_netlist.Hbn_format.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected missing-end error"

let test_hbn_module_paths () =
  let text =
    "design m\n\
     port in i\n\
     inst u1 inv_x1 module=core/alu a=i y=n1\n\
     end\n"
  in
  let d = Hb_netlist.Hbn_format.parse ~library:lib text in
  Alcotest.(check string) "module path" "core/alu"
    (Hb_netlist.Design.instance d 0).Hb_netlist.Design.module_path;
  let d2 =
    Hb_netlist.Hbn_format.parse ~library:lib (Hb_netlist.Hbn_format.write d)
  in
  Alcotest.(check string) "module path round trip" "core/alu"
    (Hb_netlist.Design.instance d2 0).Hb_netlist.Design.module_path

let test_hbn_file_io () =
  let d = small_design () in
  let path = Filename.temp_file "hbn_test" ".hbn" in
  Hb_netlist.Hbn_format.write_file d path;
  let d2 = Hb_netlist.Hbn_format.parse_file ~library:lib path in
  Sys.remove path;
  Alcotest.(check int) "instances survive file io" 3
    (Hb_netlist.Design.instance_count d2)

(* clk -> ff -> [module m: inv chain of length 3] -> ff. The macro's worst
   arc must equal the chain delay computed at the same net loads. *)
let chain_design () =
  let b = Hb_netlist.Builder.create ~name:"chain" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"clk" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:true;
  Hb_netlist.Builder.add_port b ~name:"din" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"ff1" ~cell:"dff"
    ~connections:[ ("d", "din"); ("ck", "clk"); ("q", "c0") ] ();
  for i = 0 to 2 do
    Hb_netlist.Builder.add_instance b ~module_path:"m"
      ~name:(Printf.sprintf "i%d" i) ~cell:"inv_x1"
      ~connections:
        [ ("a", Printf.sprintf "c%d" i); ("y", Printf.sprintf "c%d" (i + 1)) ]
      ()
  done;
  Hb_netlist.Builder.add_instance b ~name:"ff2" ~cell:"dff"
    ~connections:[ ("d", "c3"); ("ck", "clk"); ("q", "unused_q") ] ();
  Hb_netlist.Builder.freeze b

let inv_delay d net_name =
  let net =
    match Hb_netlist.Design.find_net d net_name with
    | Some n -> Hb_netlist.Design.net d n
    | None -> Alcotest.fail ("missing net " ^ net_name)
  in
  let cell = Hb_cell.Library.find_exn lib "inv_x1" in
  match Hb_cell.Cell.arc_between cell ~input:"a" ~output:"y" with
  | Some arc ->
    Hb_cell.Delay_model.worst arc.Hb_cell.Cell.delay
      ~load:net.Hb_netlist.Design.load_capacitance
  | None -> Alcotest.fail "inv arc missing"

let test_collapse_chain () =
  let d = chain_design () in
  let collapsed = Hb_netlist.Hierarchy.collapse d in
  Alcotest.(check int) "instance count" 3
    (Hb_netlist.Design.instance_count collapsed);
  let macro =
    match Hb_netlist.Design.find_instance collapsed "macro_m" with
    | Some i -> Hb_netlist.Design.instance collapsed i
    | None -> Alcotest.fail "macro instance missing"
  in
  let expected =
    inv_delay d "c1" +. inv_delay d "c2" +. inv_delay d "c3"
  in
  (match
     Hb_cell.Cell.arc_between macro.Hb_netlist.Design.cell ~input:"i0"
       ~output:"o0"
   with
   | Some arc ->
     check_float "macro worst arc = chain delay" expected
       (Hb_cell.Delay_model.worst arc.Hb_cell.Cell.delay ~load:0.0)
   | None -> Alcotest.fail "macro arc missing")

let test_collapse_no_modules_is_identity () =
  let d = small_design () in
  let collapsed = Hb_netlist.Hierarchy.collapse d in
  Alcotest.(check int) "same instances"
    (Hb_netlist.Design.instance_count d)
    (Hb_netlist.Design.instance_count collapsed)

let test_collapse_rejects_sync_in_module () =
  let b = Hb_netlist.Builder.create ~name:"x" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"clk" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:true;
  Hb_netlist.Builder.add_port b ~name:"i" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~module_path:"m" ~name:"ff" ~cell:"dff"
    ~connections:[ ("d", "i"); ("ck", "clk"); ("q", "q") ] ();
  let d = Hb_netlist.Builder.freeze b in
  (match Hb_netlist.Hierarchy.collapse d with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "expected failure for sync in module")

let test_module_paths_listing () =
  let d = chain_design () in
  Alcotest.(check (list string)) "paths" [ "m" ]
    (Hb_netlist.Hierarchy.module_paths d);
  Alcotest.(check (list string)) "no paths" []
    (Hb_netlist.Hierarchy.module_paths (small_design ()))

let test_rebuild_map_cells () =
  let d = small_design () in
  let upsized =
    Hb_netlist.Rebuild.map_cells d ~f:(fun _ inst ->
        if inst.Hb_netlist.Design.inst_name = "u1" then
          Hb_cell.Library.find_exn lib "inv_x4"
        else inst.Hb_netlist.Design.cell)
  in
  (match Hb_netlist.Design.find_instance upsized "u1" with
   | Some i ->
     Alcotest.(check string) "swapped" "inv_x4"
       (Hb_netlist.Design.instance upsized i)
         .Hb_netlist.Design.cell.Hb_cell.Cell.name
   | None -> Alcotest.fail "u1 missing after rebuild");
  Alcotest.(check int) "same net count"
    (Hb_netlist.Design.net_count d)
    (Hb_netlist.Design.net_count upsized)

(* ------------------------------------------------------------------ *)
(* Check (lint)                                                       *)
(* ------------------------------------------------------------------ *)

let rules findings = List.map (fun f -> f.Hb_netlist.Check.rule) findings

let test_lint_clean_design () =
  Alcotest.(check (list string)) "no findings" []
    (rules (Hb_netlist.Check.run (small_design ())))

let test_lint_dangling_output () =
  let b = Hb_netlist.Builder.create ~name:"x" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"i" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"u" ~cell:"inv_x1"
    ~connections:[ ("a", "i"); ("y", "dead") ] ();
  let d = Hb_netlist.Builder.freeze b in
  Alcotest.(check bool) "dangling reported" true
    (List.mem "dangling-output" (rules (Hb_netlist.Check.dangling_outputs d)))

let test_lint_unused_input () =
  let b = Hb_netlist.Builder.create ~name:"x" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"lonely"
    ~direction:Hb_netlist.Design.Port_in ~is_clock:false;
  let d = Hb_netlist.Builder.freeze b in
  Alcotest.(check bool) "unused input reported" true
    (List.mem "unused-input" (rules (Hb_netlist.Check.unused_inputs d)))

let test_lint_high_fanout () =
  let b = Hb_netlist.Builder.create ~name:"x" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"i" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  for k = 0 to 4 do
    Hb_netlist.Builder.add_instance b ~name:(Printf.sprintf "u%d" k)
      ~cell:"inv_x1"
      ~connections:[ ("a", "i"); ("y", Printf.sprintf "o%d" k) ] ()
  done;
  let d = Hb_netlist.Builder.freeze b in
  Alcotest.(check int) "fanout 5 over limit 4" 1
    (List.length (Hb_netlist.Check.high_fanout ~limit:4 d));
  Alcotest.(check int) "within default limit" 0
    (List.length (Hb_netlist.Check.high_fanout d))

let test_lint_clock_as_data () =
  let b = Hb_netlist.Builder.create ~name:"x" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"clk" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:true;
  Hb_netlist.Builder.add_instance b ~name:"u" ~cell:"inv_x1"
    ~connections:[ ("a", "clk"); ("y", "n") ] ();
  let d = Hb_netlist.Builder.freeze b in
  Alcotest.(check bool) "clock into data pin flagged" true
    (List.mem "clock-as-data" (rules (Hb_netlist.Check.clock_as_data d)))

let test_lint_data_as_control () =
  let b = Hb_netlist.Builder.create ~name:"x" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"notclock"
    ~direction:Hb_netlist.Design.Port_in ~is_clock:false;
  Hb_netlist.Builder.add_port b ~name:"d" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"ff" ~cell:"dff"
    ~connections:[ ("d", "d"); ("ck", "notclock"); ("q", "q") ] ();
  let d = Hb_netlist.Builder.freeze b in
  let findings = Hb_netlist.Check.run d in
  Alcotest.(check bool) "error reported first" true
    (match findings with
     | first :: _ ->
       first.Hb_netlist.Check.rule = "data-as-control"
       && first.Hb_netlist.Check.severity = Hb_netlist.Check.Error
     | [] -> false)

let test_lint_self_loop () =
  (* A nand feeding itself (an RS-latch-ish structure) is flagged; freeze
     accepts it since the net has one driver. *)
  let b = Hb_netlist.Builder.create ~name:"x" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"i" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"u" ~cell:"nand2_x1"
    ~connections:[ ("a", "i"); ("b", "loop"); ("y", "loop") ] ();
  let d = Hb_netlist.Builder.freeze b in
  Alcotest.(check bool) "self loop reported" true
    (List.mem "self-loop" (rules (Hb_netlist.Check.self_loop d)))

(* ------------------------------------------------------------------ *)
(* Port nets and shared pin strings                                   *)
(* ------------------------------------------------------------------ *)

(* [Design.net_of_port] as it was before the port table: scan the nets in
   order and return the first listing the port among its drivers or
   loads. The reference for the table. *)
let scan_net_of_port design port =
  let matches = function
    | Hb_netlist.Design.Port p -> p = port
    | Hb_netlist.Design.Pin _ -> false
  in
  let rec scan i =
    if i >= Hb_netlist.Design.net_count design then None
    else
      let net = Hb_netlist.Design.net design i in
      if List.exists matches net.Hb_netlist.Design.drivers
      || List.exists matches net.Hb_netlist.Design.loads
      then Some i
      else scan (i + 1)
  in
  scan 0

(* Every catalog design up to scale10k (the larger presets cost the scan
   seconds per design), as built by its generator. *)
let catalog_designs () =
  List.filter_map
    (fun (name, generator) ->
       if name = "scale100k" || name = "scale1m" then None
       else Some (name, fst (generator ())))
    Hb_workload.Catalog.generators

(* The design written to .hbn and read back, against a library of its own
   cells (sm1h's macro cells are not in the default library). *)
let reread design =
  let cells = Hashtbl.create 16 in
  Array.iter
    (fun (inst : Hb_netlist.Design.instance) ->
       let cell = inst.Hb_netlist.Design.cell in
       Hashtbl.replace cells cell.Hb_cell.Cell.name cell)
    design.Hb_netlist.Design.instances;
  let library =
    Hb_cell.Library.create (Hashtbl.fold (fun _ c acc -> c :: acc) cells [])
  in
  Hb_netlist.Hbn_format.parse ~library (Hb_netlist.Hbn_format.write design)

(* One design per Structural edit kind, each made from [design] by the
   first edit of that kind that applies (the edits reject synchronising
   instances, output pins and the like). *)
let structural_edits design =
  let first count edit =
    let rec go i =
      if i >= count then None
      else match edit i with
        | edited -> Some edited
        | exception Invalid_argument _ -> go (i + 1)
    in
    go 0
  in
  let instances = Hb_netlist.Design.instance_count design in
  let record inst = Hb_netlist.Design.instance design inst in
  let buffer = Hb_cell.Library.find_exn lib "buf_x1" in
  List.filter_map
    (fun (kind, edited) -> Option.map (fun d -> (kind, d)) edited)
    [ ( "resize",
        first instances (fun inst ->
            match Hb_cell.Library.upsize lib (record inst).Hb_netlist.Design.cell with
            | Some cell -> Hb_netlist.Structural.resize_gate design ~inst ~cell
            | None -> invalid_arg "no larger cell") );
      ( "insert buffer",
        first (Hb_netlist.Design.net_count design) (fun net ->
            Hb_netlist.Structural.insert_buffer design ~net ~cell:buffer ()) );
      ( "remove",
        first instances (fun inst ->
            Hb_netlist.Structural.remove_gate design ~inst) );
      ( "rewire",
        first instances (fun inst ->
            match (record inst).Hb_netlist.Design.connections with
            | (pin, net) :: _ ->
              Hb_netlist.Structural.rewire_pin design ~inst ~pin
                ~net:(if net = 0 then 1 else 0)
            | [] -> invalid_arg "unconnected") ) ]

let check_port_nets label design =
  for p = 0 to Hb_netlist.Design.port_count design - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "%s: port %s" label
         (Hb_netlist.Design.port design p).Hb_netlist.Design.port_name)
      (scan_net_of_port design p)
      (Hb_netlist.Design.net_of_port design p)
  done

let test_net_of_port_matches_scan () =
  List.iter
    (fun (name, design) ->
       check_port_nets name design;
       check_port_nets (name ^ " re-read") (reread design);
       let edits = structural_edits design in
       Alcotest.(check int) (name ^ ": edit kinds applied") 4
         (List.length edits);
       List.iter
         (fun (kind, edited) -> check_port_nets (name ^ " " ^ kind) edited)
         edits)
    (catalog_designs ())

(* Every connection and [Pin] endpoint names its pin with the cell's own
   string, so a design holds one string per distinct pin name. *)
let check_shared_pin_strings label design =
  let own (cell : Hb_cell.Cell.t) pin =
    List.exists
      (fun (p : Hb_cell.Cell.pin) -> p.Hb_cell.Cell.pin_name == pin)
      cell.Hb_cell.Cell.pins
  in
  let cell_of inst =
    (Hb_netlist.Design.instance design inst).Hb_netlist.Design.cell
  in
  Array.iteri
    (fun i (inst : Hb_netlist.Design.instance) ->
       List.iter
         (fun (pin, _) ->
            if not (own (cell_of i) pin) then
              Alcotest.failf "%s: %s.%s is a copy of the cell's pin name"
                label inst.Hb_netlist.Design.inst_name pin)
         inst.Hb_netlist.Design.connections)
    design.Hb_netlist.Design.instances;
  Array.iter
    (fun (net : Hb_netlist.Design.net) ->
       List.iter
         (function
           | Hb_netlist.Design.Port _ -> ()
           | Hb_netlist.Design.Pin { inst; pin } ->
             if not (own (cell_of inst) pin) then
               Alcotest.failf "%s: endpoint %s on net %s is a copy" label
                 (Hb_netlist.Design.endpoint_to_string design
                    (Hb_netlist.Design.Pin { inst; pin }))
                 net.Hb_netlist.Design.net_name)
         (net.Hb_netlist.Design.drivers @ net.Hb_netlist.Design.loads))
    design.Hb_netlist.Design.nets

let test_pin_strings_shared () =
  check_shared_pin_strings "small" (small_design ());
  List.iter
    (fun (name, design) ->
       check_shared_pin_strings name design;
       check_shared_pin_strings (name ^ " re-read") (reread design))
    (catalog_designs ())

let () =
  Alcotest.run "hb_netlist"
    [ ("builder",
       [ Alcotest.test_case "basic" `Quick test_builder_basic;
         Alcotest.test_case "duplicate port" `Quick test_builder_duplicate_port;
         Alcotest.test_case "unknown cell" `Quick test_builder_unknown_cell;
         Alcotest.test_case "unknown pin" `Quick test_builder_unknown_pin;
         Alcotest.test_case "undriven net" `Quick test_freeze_undriven_net;
         Alcotest.test_case "unconnected input" `Quick test_freeze_unconnected_input;
         Alcotest.test_case "multiple drivers" `Quick test_freeze_multiple_drivers;
         Alcotest.test_case "tristate bus ok" `Quick test_freeze_tristate_bus_ok;
         Alcotest.test_case "undriven output port" `Quick test_freeze_undriven_output_port;
         Alcotest.test_case "net load" `Quick test_net_load_capacitance ]);
      ("design",
       [ Alcotest.test_case "lookups" `Quick test_design_lookups;
         Alcotest.test_case "net of pin" `Quick test_net_of_pin;
         Alcotest.test_case "endpoints" `Quick test_endpoint_rendering;
         Alcotest.test_case "net_of_port = net scan" `Quick
           test_net_of_port_matches_scan;
         Alcotest.test_case "pin strings are the cell's" `Quick
           test_pin_strings_shared ]);
      ("stats", [ Alcotest.test_case "compute" `Quick test_stats ]);
      ("hbn",
       [ Alcotest.test_case "round trip" `Quick test_hbn_round_trip;
         Alcotest.test_case "parse example" `Quick test_hbn_parse_example;
         Alcotest.test_case "errors" `Quick test_hbn_errors;
         Alcotest.test_case "missing end" `Quick test_hbn_missing_end;
         Alcotest.test_case "module paths" `Quick test_hbn_module_paths;
         Alcotest.test_case "file io" `Quick test_hbn_file_io ]);
      ("hierarchy",
       [ Alcotest.test_case "collapse chain" `Quick test_collapse_chain;
         Alcotest.test_case "identity" `Quick test_collapse_no_modules_is_identity;
         Alcotest.test_case "sync rejected" `Quick test_collapse_rejects_sync_in_module;
         Alcotest.test_case "module paths" `Quick test_module_paths_listing ]);
      ("rebuild", [ Alcotest.test_case "map cells" `Quick test_rebuild_map_cells ]);
      ("check",
       [ Alcotest.test_case "clean design" `Quick test_lint_clean_design;
         Alcotest.test_case "dangling output" `Quick test_lint_dangling_output;
         Alcotest.test_case "unused input" `Quick test_lint_unused_input;
         Alcotest.test_case "high fanout" `Quick test_lint_high_fanout;
         Alcotest.test_case "clock as data" `Quick test_lint_clock_as_data;
         Alcotest.test_case "data as control" `Quick test_lint_data_as_control;
         Alcotest.test_case "self loop" `Quick test_lint_self_loop ]);
    ]
