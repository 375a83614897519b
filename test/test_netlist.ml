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

(* The .hbn error contract: for each malformed input, the exception that
   escapes [parse], with its line and exact message. Parse errors carry
   the line, a builder's refusal of a line (a duplicate port or instance,
   an unknown cell) included; a design that fails validation escapes as
   [freeze]'s [Failure]. Where an input holds two faults, the one listed
   is the one reported first. *)
type hbn_outcome =
  | At of int * string
  | Invalid of string
  | Failed of string

let describe_outcome = function
  | At (line, message) -> Printf.sprintf "Parse_error at line %d: %s" line message
  | Invalid message -> "Invalid_argument: " ^ message
  | Failed message -> "Failure: " ^ message

let hbn_error_cases =
  let freeze = Printf.sprintf "Builder.freeze(d): %s" in
  [ ("design without a name", "design\nend\n", At (1, "usage: design <name>"));
    ("design with two names", "design a b\nend\n", At (1, "usage: design <name>"));
    ("port with a bad direction", "design d\nport sideways x\nend\n",
     At (2, "usage: port in|out <name> [clock]"));
    ("port without a name", "design d\nport in\nend\n",
     At (2, "usage: port in|out <name> [clock]"));
    ("clock output port", "design d\nport out x clock\nend\n",
     At (2, "usage: port in|out <name> [clock]"));
    ("port with a bad flag", "design d\nport in x fast\nend\n",
     At (2, "usage: port in|out <name> [clock]"));
    ("unknown directive", "design d\nport in x\nwhatever\nend\n",
     At (3, "unknown directive \"whatever\""));
    ("inst with two tokens", "design d\ninst u1\nend\n",
     At (2, "unknown directive \"inst\""));
    ("inst with one token", "design d\ninst\nend\n",
     At (2, "unknown directive \"inst\""));
    ("end with two tokens", "design d\nend now\n",
     At (2, "unknown directive \"end\""));
    ("inst before design", "inst u1 dff d=a\n",
     At (1, "expected 'design <name>' first"));
    ("port before design", "# header\nport in x\ndesign d\nend\n",
     At (2, "expected 'design <name>' first"));
    ("end before design", "end\n", At (1, "expected 'design <name>' first"));
    ("port after end", "design d\nend\nport in x\n", At (3, "directive after 'end'"));
    ("inst after end", "design d\nend\n\ninst u inv_x1 a=x y=z\n",
     At (4, "directive after 'end'"));
    ("end after end", "design d\nend\nend\n", At (3, "directive after 'end'"));
    ("duplicate design", "design d\ndesign e\nend\n",
     At (2, "duplicate 'design' directive"));
    ("design after end", "design d\nend\ndesign e\n",
     At (3, "duplicate 'design' directive"));
    ("duplicate port", "design d\nport in x\nport out x\nend\n",
     At (3, "Builder.add_port: duplicate port x"));
    ("duplicate instance",
     "design d\nport in i\ninst u inv_x1 a=i y=n\ninst u inv_x1 a=n y=m\nend\n",
     At (4, "Builder.add_instance: duplicate instance u"));
    ("unknown cell", "design d\ninst u1 nonexistent a=b\nend\n",
     At (2, "Builder.add_instance: unknown cell nonexistent"));
    ("unknown pin", "design d\nport in i\ninst u1 inv_x1 a=i zz=b\nend\n",
     At (3, "Builder.add_instance: inv_x1 has no pin zz"));
    ("binding without a net", "design d\ninst u1 inv_x1 a=\nend\n",
     At (2, "empty pin or net in \"a=\""));
    ("binding without a pin", "design d\ninst u1 inv_x1 =n\nend\n",
     At (2, "empty pin or net in \"=n\""));
    ("binding without =", "design d\ninst u1 inv_x1 a\nend\n",
     At (2, "expected <pin>=<net>, got \"a\""));
    (* Only ' ' separates tokens: a tab or a '\r' stays inside one. *)
    ("carriage returns", "design d\r\nend\r\n",
     At (2, "unknown directive \"end\\r\""));
    ("tab after a directive", "design d\ninst\tu inv_x1 a=i y=n\nend\n",
     At (2, "unknown directive \"inst\\tu\""));
    ("bare module=", "design d\ninst u1 inv_x1 module= a=i y=n\nend\n",
     At (2, "empty pin or net in \"module=\""));
    ("empty input", "", At (1, "empty input: no 'design' directive"));
    ("comments only", "# nothing\n\n", At (1, "empty input: no 'design' directive"));
    ("unconnected input pin",
     "design d\nport in i\ninst u nand2_x1 a=i y=n\nend\n",
     Failed (freeze "instance u: input pin b unconnected"));
    ("undriven net", "design d\ninst u inv_x1 a=floating y=n\nend\n",
     Failed (freeze "net floating has no driver"));
    ("two non-tristate drivers",
     "design d\nport in i\ninst u1 inv_x1 a=i y=s\ninst u2 inv_x1 a=i y=s\nend\n",
     Failed (freeze "net s has multiple non-tristate drivers"));
    ("input port and gate drive one net",
     "design d\nport in i\ninst u1 inv_x1 a=i y=i\nend\n",
     Failed (freeze "net i has multiple non-tristate drivers"));
    (* An output port's net has no other port on it, so an undriven output
       port fails as a net without a driver. *)
    ("undriven output port", "design d\nport out o\nend\n",
     Failed (freeze "net o has no driver"));
    (* Two faults each: the first named is the one reported. *)
    ("bad binding, then unknown cell", "design d\ninst u1 nonexistent a\nend\n",
     At (2, "expected <pin>=<net>, got \"a\""));
    ("second binding bad, then unknown pin",
     "design d\ninst u1 inv_x1 zz=i a=\nend\n",
     At (2, "empty pin or net in \"a=\""));
    ("unknown cell, then duplicate instance",
     "design d\nport in i\ninst u inv_x1 a=i y=n\ninst u nonexistent a=n\nend\n",
     At (4, "Builder.add_instance: unknown cell nonexistent"));
    ("duplicate instance, then unknown pin",
     "design d\nport in i\ninst u inv_x1 a=i y=n\ninst u inv_x1 zz=n\nend\n",
     At (4, "Builder.add_instance: duplicate instance u"));
    ("two unknown pins", "design d\ninst u inv_x1 zz=a qq=b\nend\n",
     At (2, "Builder.add_instance: inv_x1 has no pin zz"));
    ("bad line, then missing end", "design d\nwhatever\nport in x\n",
     At (2, "unknown directive \"whatever\""));
    ("undriven net, then unconnected input",
     "design d\ninst u nand2_x1 a=floating y=n\nend\n",
     Failed (freeze "instance u: input pin b unconnected"));
    ("two undriven nets", "design d\ninst u nand2_x1 b=x a=w y=n\nend\n",
     Failed (freeze "net x has no driver"));
    ("two drivers, then undriven net",
     "design d\nport in i\ninst u1 inv_x1 a=i y=s\ninst u2 inv_x1 a=i y=s\n\
      inst u3 inv_x1 a=f y=g\nend\n",
     Failed (freeze "net s has multiple non-tristate drivers"));
    ("undriven output port, then undriven net",
     "design d\nport out o\ninst u inv_x1 a=f y=g\nend\n",
     Failed (freeze "net o has no driver"));
    ("two undriven output ports", "design d\nport out o\nport out p\nend\n",
     Failed (freeze "net o has no driver"));
    (* Ports' nets are numbered first wherever the port line stands. *)
    ("undriven net, then undriven output port listed after it",
     "design d\ninst u inv_x1 a=x y=z\nport out y\nend\n",
     Failed (freeze "net y has no driver"));
    ("output port listed after the net it names",
     "design d\nport in i\ninst u inv_x1 a=i y=f\nport out f\nport out o\nend\n",
     Failed (freeze "net o has no driver"));
  ]

(* A design without its closing [end] is reported on the line after the
   last one, before the design is checked. *)
let hbn_missing_end_cases =
  [ ("missing end, final newline", "design d\nport in x\n",
     At (3, "missing 'end' directive"));
    ("missing end, no final newline", "design d\nport in x",
     At (2, "missing 'end' directive"));
    ("missing end, then undriven net", "design d\ninst u inv_x1 a=x y=n\n",
     At (3, "missing 'end' directive"));
  ]

let check_hbn_outcomes cases =
  List.iter
    (fun (label, text, expected) ->
       let got =
         match Hb_netlist.Hbn_format.parse ~library:lib text with
         | _ -> "no error"
         | exception Hb_netlist.Hbn_format.Parse_error { line; message } ->
           describe_outcome (At (line, message))
         | exception Invalid_argument message -> describe_outcome (Invalid message)
         | exception Failure message -> describe_outcome (Failed message)
       in
       Alcotest.(check string) label (describe_outcome expected) got)
    cases

let test_hbn_errors () = check_hbn_outcomes hbn_error_cases
let test_hbn_missing_end () = check_hbn_outcomes hbn_missing_end_cases

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

(* [got] equals [expected] field by field: names, cells, connections,
   endpoint order, load capacitance bits, ports and the port table. *)
let check_same_design label (expected : Hb_netlist.Design.t)
    (got : Hb_netlist.Design.t) =
  let module D = Hb_netlist.Design in
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) label in
  if got.D.design_name <> expected.D.design_name then fail "design name";
  if Array.length got.D.instances <> Array.length expected.D.instances then
    fail "instance count";
  Array.iteri
    (fun i (e : D.instance) ->
       let g = got.D.instances.(i) in
       let name = e.D.inst_name in
       if g.D.inst_name <> name then fail "instance %d name" i;
       if g.D.cell.Hb_cell.Cell.name <> e.D.cell.Hb_cell.Cell.name then
         fail "%s: cell" name;
       if g.D.module_path <> e.D.module_path then fail "%s: module path" name;
       if g.D.connections <> e.D.connections then fail "%s: connections" name)
    expected.D.instances;
  if Array.length got.D.nets <> Array.length expected.D.nets then
    fail "net count";
  Array.iteri
    (fun i (e : D.net) ->
       let g = got.D.nets.(i) in
       let name = e.D.net_name in
       if g.D.net_name <> name then fail "net %d is %s, not %s" i g.D.net_name name;
       if g.D.drivers <> e.D.drivers then fail "net %s: drivers" name;
       if g.D.loads <> e.D.loads then fail "net %s: loads" name;
       if Int64.bits_of_float g.D.load_capacitance
          <> Int64.bits_of_float e.D.load_capacitance
       then fail "net %s: load capacitance bits" name)
    expected.D.nets;
  if got.D.ports <> expected.D.ports then fail "ports";
  if got.D.port_net <> expected.D.port_net then fail "port table"

(* A net's load capacitance is its input pins' capacitances summed from
   0.0 in loads order, then the wire estimate per load: the order
   [Structural] re-sums in after an edit. *)
let check_load_capacitance_order label (design : Hb_netlist.Design.t) =
  let module D = Hb_netlist.Design in
  Array.iter
    (fun (net : D.net) ->
       let pins =
         List.fold_left
           (fun acc -> function
              | D.Port _ -> acc
              | D.Pin { inst; pin } ->
                (match
                   Hb_cell.Cell.find_pin design.D.instances.(inst).D.cell pin
                 with
                 | Some p -> acc +. p.Hb_cell.Cell.capacitance
                 | None -> Alcotest.failf "%s: %s has no pin %s" label
                             design.D.instances.(inst).D.inst_name pin))
           0.0 net.D.loads
       in
       let expected =
         pins
         +. Hb_netlist.Builder.wire_capacitance_per_load
            *. float_of_int (List.length net.D.loads)
       in
       if Int64.bits_of_float expected
          <> Int64.bits_of_float net.D.load_capacitance
       then Alcotest.failf "%s: net %s load capacitance bits" label net.D.net_name)
    design.D.nets

(* Each net lists its endpoints with the ports first, in port order, then
   the pins in instance order and, within an instance, in connection
   order. *)
let check_endpoint_order label (design : Hb_netlist.Design.t) =
  let module D = Hb_netlist.Design in
  let rec position pin i = function
    | [] -> Alcotest.failf "%s: pin %s is not connected" label pin
    | (p, _) :: rest -> if p == pin then i else position pin (i + 1) rest
  in
  let key = function
    | D.Port p -> (-1, p)
    | D.Pin { inst; pin } ->
      (inst, position pin 0 design.D.instances.(inst).D.connections)
  in
  let rec ascending = function
    | a :: (b :: _ as rest) -> compare (key a) (key b) < 0 && ascending rest
    | [ _ ] | [] -> true
  in
  Array.iter
    (fun (net : D.net) ->
       if not (ascending net.D.drivers && ascending net.D.loads) then
         Alcotest.failf "%s: net %s lists its endpoints out of order" label
           net.D.net_name)
    design.D.nets

(* Every catalog design but scale1m (its size) reads back from its .hbn
   as built, every pin named by the cell's own string. *)
let test_hbn_catalog_identity () =
  List.iter
    (fun (name, generator) ->
       if name <> "scale1m" then begin
         let design = fst (generator ()) in
         check_load_capacitance_order name design;
         check_endpoint_order name design;
         let parsed = reread design in
         check_same_design name design parsed;
         check_shared_pin_strings (name ^ " re-read") parsed
       end)
    Hb_workload.Catalog.generators

let net_names design =
  Array.to_list
    (Array.map
       (fun (n : Hb_netlist.Design.net) -> n.Hb_netlist.Design.net_name)
       design.Hb_netlist.Design.nets)

(* Ports' nets are numbered first, in port order, then first mention in
   instance order, wherever the ports were declared. *)
let late_ports_nets = [ "i"; "q"; "o"; "a"; "n"; "m" ]

let late_ports_builder () =
  let b = Hb_netlist.Builder.create ~name:"late" ~library:lib in
  Hb_netlist.Builder.add_instance b ~name:"u1" ~cell:"inv_x1"
    ~connections:[ ("a", "a"); ("y", "n") ] ();
  Hb_netlist.Builder.add_port b ~name:"i" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"u2" ~cell:"nand2_x1"
    ~connections:[ ("a", "n"); ("b", "i"); ("y", "m") ] ();
  Hb_netlist.Builder.add_instance b ~name:"u0" ~cell:"buf_x1"
    ~connections:[ ("a", "i"); ("y", "a") ] ();
  Hb_netlist.Builder.add_port b ~name:"q" ~direction:Hb_netlist.Design.Port_out
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"u3" ~cell:"buf_x1"
    ~connections:[ ("a", "m"); ("y", "q") ] ();
  Hb_netlist.Builder.add_instance b ~name:"u4" ~cell:"buf_x1"
    ~connections:[ ("a", "m"); ("y", "o") ] ();
  Hb_netlist.Builder.add_port b ~name:"o" ~direction:Hb_netlist.Design.Port_out
    ~is_clock:false;
  b

let late_ports_text =
  "design late\n\
   inst u1 inv_x1 a=a y=n\n\
   port in i\n\
   inst u2 nand2_x1 a=n b=i y=m\n\
   inst u0 buf_x1 a=i y=a\n\
   port out q\n\
   inst u3 buf_x1 a=m y=q\n\
   inst u4 buf_x1 a=m y=o\n\
   port out o\n\
   end\n"

let test_late_ports () =
  let module D = Hb_netlist.Design in
  let built = Hb_netlist.Builder.freeze (late_ports_builder ()) in
  Alcotest.(check (list string)) "builder net ids" late_ports_nets
    (net_names built);
  Alcotest.(check (list (list (pair string int)))) "builder connections"
    [ [ ("a", 3); ("y", 4) ];
      [ ("a", 4); ("b", 0); ("y", 5) ];
      [ ("a", 0); ("y", 3) ];
      [ ("a", 5); ("y", 1) ];
      [ ("a", 5); ("y", 2) ] ]
    (Array.to_list
       (Array.map (fun (inst : D.instance) -> inst.D.connections) built.D.instances));
  Alcotest.(check (list int)) "port table" [ 0; 1; 2 ]
    (Array.to_list built.D.port_net);
  (match D.find_net built "m" with
   | Some m ->
     Alcotest.(check int) "m's loads" 2 (List.length (D.net built m).D.loads)
   | None -> Alcotest.fail "net m missing");
  (* A port's net bears the port's own string, even when an instance
     named the net first. *)
  let b = Hb_netlist.Builder.create ~name:"late" ~library:lib in
  let port = String.concat "" [ "o"; "ut" ] in
  Hb_netlist.Builder.add_port b ~name:"i" ~direction:D.Port_in ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"u" ~cell:"inv_x1"
    ~connections:[ ("a", "i"); ("y", String.concat "" [ "ou"; "t" ]) ] ();
  Hb_netlist.Builder.add_port b ~name:port ~direction:D.Port_out ~is_clock:false;
  let design = Hb_netlist.Builder.freeze b in
  Alcotest.(check bool) "the port's string names its net" true
    ((D.net design 1).D.net_name == port);
  let parsed = Hb_netlist.Hbn_format.parse ~library:lib late_ports_text in
  Alcotest.(check (list string)) "parsed net ids" late_ports_nets
    (net_names parsed);
  check_same_design "late ports" built parsed;
  (* Written back, the ports come first and the nets keep their ids. *)
  check_same_design "late ports re-read" built
    (Hb_netlist.Hbn_format.parse ~library:lib (Hb_netlist.Hbn_format.write parsed))

(* A builder may be frozen again, before or after more is added. *)
let test_freeze_twice () =
  let b = late_ports_builder () in
  let first = Hb_netlist.Builder.freeze b in
  check_same_design "late ports, frozen again" first (Hb_netlist.Builder.freeze b);
  Hb_netlist.Builder.add_instance b ~name:"u5" ~cell:"inv_x1"
    ~connections:[ ("a", "o"); ("y", "z") ] ();
  let grown = Hb_netlist.Builder.freeze b in
  Alcotest.(check (list string)) "nets after one more instance"
    (late_ports_nets @ [ "z" ]) (net_names grown);
  check_same_design "first freeze unchanged" first (Hb_netlist.Builder.freeze
    (late_ports_builder ()));
  let b = Hb_netlist.Builder.create ~name:"small" ~library:lib in
  Hb_netlist.Builder.add_port b ~name:"i" ~direction:Hb_netlist.Design.Port_in
    ~is_clock:false;
  Hb_netlist.Builder.add_instance b ~name:"u" ~cell:"inv_x1"
    ~connections:[ ("a", "i"); ("y", "n") ] ();
  check_same_design "ports first, frozen again" (Hb_netlist.Builder.freeze b)
    (Hb_netlist.Builder.freeze b)

(* Only ' ' separates tokens and only a first token starting with '#'
   makes a comment; blank lines and a missing final newline are fine. *)
let test_hbn_whitespace () =
  let parse = Hb_netlist.Hbn_format.parse ~library:lib in
  let canonical =
    parse "design d\nport in x\nport out y\ninst u inv_x1 a=x y=y\nend\n"
  in
  check_same_design "spaces, blank lines, comments" canonical
    (parse
       "  # leading comment\n\n   \ndesign   d  \n port  in   x \n\
        #port in z\nport out y\n\ninst  u   inv_x1   a=x    y=y\n \
        #c d e\nend");
  check_same_design "lines after end" canonical
    (parse
       "design d\nport in x\nport out y\ninst u inv_x1 a=x y=y\nend\n\n\
        # done\n  \n");
  let tabbed =
    parse "design d\r\nport in x\ninst u\tv inv_x1 a=x y=n\tm\r\nend\n"
  in
  Alcotest.(check string) "'\\r' stays in the design name" "d\r"
    tabbed.Hb_netlist.Design.design_name;
  Alcotest.(check (list string)) "tab and '\\r' inside a net name"
    [ "x"; "n\tm\r" ] (net_names tabbed);
  Alcotest.(check bool) "tab inside an instance name" true
    (Hb_netlist.Design.find_instance tabbed "u\tv" <> None);
  Alcotest.(check int) "an empty design without a final newline" 0
    (Hb_netlist.Design.instance_count (parse "design d\nend"))

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
         Alcotest.test_case "net load" `Quick test_net_load_capacitance;
         Alcotest.test_case "late ports" `Quick test_late_ports;
         Alcotest.test_case "freeze twice" `Quick test_freeze_twice ]);
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
         Alcotest.test_case "catalog identity" `Quick test_hbn_catalog_identity;
         Alcotest.test_case "whitespace" `Quick test_hbn_whitespace;
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
