(* Tests for the BLIF reader. *)

let lib = Hb_cell.Library.default ()

let simple_blif =
  "# a small synchronous model\n\
   .model counter\n\
   .inputs din en\n\
   .outputs q\n\
   .names din en d\n\
   11 1\n\
   .latch d q re clock 0\n\
   .end\n"

let test_parse_simple () =
  let d = Hb_netlist.Blif.parse ~library:lib simple_blif in
  Alcotest.(check string) "name" "counter" d.Hb_netlist.Design.design_name;
  (* 1 names macro + 1 latch. *)
  Alcotest.(check int) "instances" 2 (Hb_netlist.Design.instance_count d);
  (* clock promoted to a clock port. *)
  (match Hb_netlist.Design.find_port d "clock" with
   | Some p ->
     Alcotest.(check bool) "clock flagged" true
       (Hb_netlist.Design.port d p).Hb_netlist.Design.is_clock
   | None -> Alcotest.fail "clock port missing");
  (* din/en stay data inputs. *)
  (match Hb_netlist.Design.find_port d "din" with
   | Some p ->
     Alcotest.(check bool) "din not clock" false
       (Hb_netlist.Design.port d p).Hb_netlist.Design.is_clock
   | None -> Alcotest.fail "din missing")

let test_names_macro_shape () =
  let d = Hb_netlist.Blif.parse ~library:lib simple_blif in
  let i =
    match Hb_netlist.Design.find_instance d "blif_n0" with
    | Some i -> Hb_netlist.Design.instance d i
    | None -> Alcotest.fail "names instance missing"
  in
  let cell = i.Hb_netlist.Design.cell in
  Alcotest.(check int) "two inputs" 2 (List.length (Hb_cell.Cell.input_pins cell));
  Alcotest.(check bool) "macro kind" true
    (cell.Hb_cell.Cell.kind = Hb_cell.Kind.Comb (Hb_cell.Kind.Macro 2))

let test_latch_kinds () =
  let text =
    ".model kinds\n\
     .inputs a b c\n\
     .outputs x y z\n\
     .latch a x re ck1 0\n\
     .latch b y ah ck2\n\
     .latch c z al ck2\n\
     .end\n"
  in
  let d = Hb_netlist.Blif.parse ~library:lib text in
  let kind name =
    match Hb_netlist.Design.find_instance d name with
    | Some i ->
      (Hb_netlist.Design.instance d i).Hb_netlist.Design.cell.Hb_cell.Cell.name
    | None -> Alcotest.fail (name ^ " missing")
  in
  Alcotest.(check string) "re -> dff" "dff" (kind "blif_l0");
  Alcotest.(check string) "ah -> latch" "latch" (kind "blif_l1");
  Alcotest.(check string) "al -> latch" "latch" (kind "blif_l2");
  (* The al latch got an explicit control inverter. *)
  Alcotest.(check bool) "control inverter present" true
    (Hb_netlist.Design.find_instance d "blif_ctlinv2" <> None)

let test_gate_directive () =
  let text =
    ".model gates\n\
     .inputs clk i\n\
     .outputs o\n\
     .gate inv_x1 a=i y=t\n\
     .gate buf_x2 a=t y=o\n\
     .end\n"
  in
  let d = Hb_netlist.Blif.parse ~library:lib text in
  Alcotest.(check int) "two gates" 2 (Hb_netlist.Design.instance_count d)

let test_continuation_lines () =
  let text =
    ".model cont\n\
     .inputs a \\\n\
     b\n\
     .outputs o\n\
     .names a b o\n\
     11 1\n\
     .end\n"
  in
  let d = Hb_netlist.Blif.parse ~library:lib text in
  Alcotest.(check bool) "b declared via continuation" true
    (Hb_netlist.Design.find_port d "b" <> None)

let expect_error text =
  match Hb_netlist.Blif.parse ~library:lib text with
  | exception Hb_netlist.Blif.Parse_error _ -> ()
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected parse error"

let test_blif_errors () =
  expect_error ".model x\n.latch a b\n.end\n";          (* no control *)
  expect_error ".model x\n.latch a b zz ck\n.end\n";    (* bad type *)
  expect_error ".model x\n.bogus\n.end\n";              (* unknown directive *)
  expect_error ".model x\n.names a b o\n111 1\n.end\n"; (* ragged cover *)
  expect_error ".model x\n.inputs a\n";                 (* missing .end *)
  expect_error "11 1\n.end\n"                           (* cover outside names *)

(* Malformed inputs must surface as [Parse_error] with the offending
   line — never as an assertion or an anonymous exception. *)
let expect_error_at ~line:expected ~contains text =
  match Hb_netlist.Blif.parse ~library:lib text with
  | exception Hb_netlist.Blif.Parse_error { line; message } ->
    Alcotest.(check int) ("line of: " ^ contains) expected line;
    let has_fragment =
      let n = String.length contains and h = String.length message in
      let rec scan i =
        i + n <= h && (String.sub message i n = contains || scan (i + 1))
      in
      scan 0
    in
    if not has_fragment then
      Alcotest.fail
        (Printf.sprintf "message %S does not mention %S" message contains)
  | exception e ->
    Alcotest.fail ("expected Parse_error, got " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "expected Parse_error, parse succeeded"

let test_positioned_errors () =
  (* Unknown .latch trigger type: diagnosed at the .latch line. *)
  expect_error_at ~line:3 ~contains:"latch trigger type"
    ".model x\n.inputs a\n.latch a q as ck 0\n.end\n";
  (* Missing .end: diagnosed at the last line of the text. *)
  expect_error_at ~line:3 ~contains:".end"
    ".model x\n.inputs a\n.outputs a\n";
  (* Missing .model: the rest parsed fine, last line blamed. *)
  expect_error_at ~line:5 ~contains:".model"
    ".inputs a\n.outputs o\n.names a o\n1 1\n.end\n";
  (* Cover-row width mismatch: diagnosed at the row. *)
  expect_error_at ~line:3 ~contains:"width"
    ".model x\n.names a b o\n111 1\n.end\n";
  (* A port named twice: diagnosed at the line that repeats it. *)
  expect_error_at ~line:2 ~contains:"duplicate port a"
    ".model x\n.inputs a a\n.outputs o\n.names a o\n1 1\n.end\n";
  expect_error_at ~line:3 ~contains:"duplicate port a"
    ".model x\n.inputs a\n.outputs a\n.end\n";
  (* An empty pin or net in a .gate binding: diagnosed at the .gate. *)
  expect_error_at ~line:4 ~contains:"empty pin or net in \"a=\""
    ".model x\n.inputs a b\n.outputs y\n.gate nand2_x1 a= b=b y=y\n.end\n";
  expect_error_at ~line:4 ~contains:"empty pin or net in \"=a\""
    ".model x\n.inputs a b\n.outputs y\n.gate nand2_x1 =a b=b y=y\n.end\n";
  (* A latch control that is a declared output nothing drives cannot
     become a clock input: diagnosed at the first .latch it clocks. *)
  expect_error_at ~line:4 ~contains:"duplicate port ck"
    ".model x\n.inputs a\n.outputs ck q\n.latch a q re ck 0\n\
     .latch a r re ck 0\n.end\n"

let test_blif_analyses_end_to_end () =
  (* A two-stage BLIF design through the whole analyser. *)
  let text =
    ".model pipeline\n\
     .inputs din\n\
     .outputs dout\n\
     .latch d0 q0 re clk 0\n\
     .names din d0\n\
     1 1\n\
     .names q0 t\n\
     0 1\n\
     .latch t q1 re clk 0\n\
     .names q1 dout\n\
     1 1\n\
     .end\n"
  in
  let design = Hb_netlist.Blif.parse ~library:lib text in
  let system =
    Hb_clock.System.make ~overall_period:50.0
      [ Hb_clock.Waveform.make ~name:"clk" ~multiplier:1 ~rise:0.0 ~width:20.0 ]
  in
  let report = Hb_sta.Engine.analyse ~design ~system () in
  Alcotest.(check bool) "meets timing" true
    (report.Hb_sta.Engine.outcome.Hb_sta.Algorithm1.status
     = Hb_sta.Algorithm1.Meets_timing)

let test_constant_names () =
  let text =
    ".model consts\n\
     .outputs o\n\
     .names o\n\
     1\n\
     .end\n"
  in
  let d = Hb_netlist.Blif.parse ~library:lib text in
  Alcotest.(check int) "one constant driver" 1
    (Hb_netlist.Design.instance_count d)

let () =
  Alcotest.run "blif"
    [ ("parse",
       [ Alcotest.test_case "simple" `Quick test_parse_simple;
         Alcotest.test_case "names macro" `Quick test_names_macro_shape;
         Alcotest.test_case "latch kinds" `Quick test_latch_kinds;
         Alcotest.test_case "gate directive" `Quick test_gate_directive;
         Alcotest.test_case "continuations" `Quick test_continuation_lines;
         Alcotest.test_case "errors" `Quick test_blif_errors;
         Alcotest.test_case "positioned errors" `Quick test_positioned_errors;
         Alcotest.test_case "constants" `Quick test_constant_names ]);
      ("integration",
       [ Alcotest.test_case "end to end" `Quick test_blif_analyses_end_to_end ]);
    ]
