(* Differential fuzz driver + golden corpus tests.

   The injection case is the PR's acceptance criterion: a deliberate
   off-by-one in the cache invalidation set must be caught by the fuzz
   driver within the fixed CI seed budget. *)

module Fuzz = Hb_workload.Fuzz
module Golden = Hb_workload.Golden
module Json = Hb_util.Json

(* ------------------------------------------------------------------ *)
(* Fuzz driver                                                        *)
(* ------------------------------------------------------------------ *)

let ci_seeds = Fuzz.regression_seeds @ Fuzz.seed_list ~base:0xC0FFEEL 8

let test_regression_seeds_clean () =
  List.iter
    (fun seed ->
       match Fuzz.run_seed seed with
       | [] -> ()
       | f :: _ ->
         Alcotest.failf "seed 0x%Lx diverged: %s: %s (%s)" seed f.Fuzz.check
           f.Fuzz.detail (Fuzz.repro_command f))
    ci_seeds

let test_params_deterministic () =
  let a = Fuzz.params_of_seed 0xDEADBEEFL in
  let b = Fuzz.params_of_seed 0xDEADBEEFL in
  Alcotest.(check bool) "same params" true (a = b);
  let da, _, _ = Fuzz.design_of_params a in
  let db, _, _ = Fuzz.design_of_params b in
  Alcotest.(check int) "same instance count"
    (Hb_netlist.Design.instance_count da)
    (Hb_netlist.Design.instance_count db)

let test_seed_list_deterministic () =
  Alcotest.(check (list int64))
    "same derived seeds"
    (Fuzz.seed_list ~base:0xC0FFEEL 8)
    (Fuzz.seed_list ~base:0xC0FFEEL 8)

(* The acceptance criterion: with the deliberate invalidation
   off-by-one injected, the fixed CI seed list catches the bug, and
   attributes it to the cache-coherence check. *)
let test_injection_caught () =
  let outcome = Fuzz.run ~inject:true ci_seeds in
  Alcotest.(check bool) "all seeds within budget" true
    (outcome.Fuzz.seeds_run = List.length ci_seeds);
  let coherence =
    List.filter
      (fun f -> f.Fuzz.check = "cache-coherence")
      outcome.Fuzz.failures
  in
  Alcotest.(check bool) "injected bug caught" true (coherence <> []);
  (* Only the sabotaged check may fire — the injection must not bleed
     into the other differential checks. *)
  List.iter
    (fun f ->
       Alcotest.(check string) "only cache-coherence diverges"
         "cache-coherence" f.Fuzz.check)
    outcome.Fuzz.failures

let test_budget_stops_early () =
  let outcome = Fuzz.run ~budget_seconds:0.0 ci_seeds in
  Alcotest.(check int) "no seeds after expiry" 0 outcome.Fuzz.seeds_run;
  Alcotest.(check (list string)) "no failures" []
    (List.map (fun f -> f.Fuzz.check) outcome.Fuzz.failures)

(* [String.contains] is char-only; a tiny substring search keeps the
   test dependency-free. *)
let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_failure_json_fields () =
  let params = Fuzz.params_of_seed 0xABCDL in
  let failure = { Fuzz.params; check = "session-parity"; detail = "status" } in
  let doc = Json.parse (Json.to_string (Fuzz.failure_json failure)) in
  let text path =
    match path with
    | None -> Alcotest.fail "missing artifact field"
    | Some node ->
      (match Json.to_text node with
       | Some s -> s
       | None -> Alcotest.fail "artifact field is not a string")
  in
  Alcotest.(check string) "check field" "session-parity"
    (text (Json.member "check" doc));
  Alcotest.(check string) "seed field" "0xabcd"
    (text (Option.bind (Json.member "params" doc) (Json.member "seed")));
  Alcotest.(check bool) "repro has the flag" true
    (contains (text (Json.member "repro" doc)) "--fuzz-seed 0xabcd")

(* ------------------------------------------------------------------ *)
(* Golden corpus                                                      *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hb-golden-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let test_golden_roundtrip () =
  let dir = temp_dir () in
  let e = Golden.measure "figure1" in
  Golden.save ~dir e;
  match Golden.load ~dir "figure1" with
  | None -> Alcotest.fail "saved expectation did not load"
  | Some loaded ->
    Alcotest.(check (list string)) "bit-identical after round trip" []
      (Golden.diff ~expected:loaded ~actual:e)

let test_golden_diff_detects_drift () =
  let e = Golden.measure "ring" in
  let perturbed =
    { e with
      Golden.worst_slack = e.Golden.worst_slack +. 1e-12;
      Golden.slow_endpoints = e.Golden.slow_endpoints + 1;
    }
  in
  let diffs = Golden.diff ~expected:perturbed ~actual:e in
  Alcotest.(check bool) "ulp drift detected" true (List.length diffs >= 2)

let test_golden_measure_deterministic () =
  let a = Golden.measure "pipeline" in
  let b = Golden.measure "pipeline" in
  Alcotest.(check (list string)) "same measurement twice" []
    (Golden.diff ~expected:a ~actual:b)

(* The checked-in corpus itself: dune copies test/golden/*.json next to
   the test binary (see the dune [deps]), so the frozen expectations
   must match a fresh measurement of the small designs. scale10k is
   covered by `hummingbird validate` in CI rather than here. The
   fallback path keeps `dune exec test/test_fuzz.exe` from the repo
   root working too. *)
let corpus_dir () =
  if Sys.file_exists "golden" then "golden" else "test/golden"

let test_checked_in_corpus () =
  let dir = corpus_dir () in
  List.iter
    (fun name ->
       match Golden.load ~dir name with
       | None -> Alcotest.failf "missing frozen expectation for %s" name
       | Some expected ->
         let actual = Golden.measure name in
         (match Golden.diff ~expected ~actual with
          | [] -> ()
          | d :: _ -> Alcotest.failf "%s drifted from corpus: %s" name d))
    [ "figure1"; "ring"; "pipeline" ]

let test_default_designs_cover_catalog () =
  Alcotest.(check bool) "scale10k included" true
    (List.mem "scale10k" Golden.default_designs);
  Alcotest.(check bool) "scale100k excluded" false
    (List.mem "scale100k" Golden.default_designs);
  List.iter
    (fun name ->
       Alcotest.(check bool)
         (Printf.sprintf "%s is a catalogued generator" name)
         true
         (List.mem name Hb_workload.Catalog.names))
    Golden.default_designs

(* ------------------------------------------------------------------ *)
(* Reader boundaries                                                  *)
(* ------------------------------------------------------------------ *)

module Text = Hb_util.Text

let library = Hb_cell.Library.default ()

let sample name = Text.read_file (Filename.concat "../examples/data" name)

let small_designs =
  lazy
    (List.map
       (fun name -> (Option.get (Hb_workload.Catalog.find name)) ())
       [ "figure1"; "ring"; "sm1h"; "pipeline"; "sm1f" ])

(* Each reader, whether each of its faults must be a parse error, and
   its seed texts: the shipped samples and the small catalog designs
   written out. *)
let readers =
  lazy
    (let designs = Lazy.force small_designs in
     let hbt =
       { Hb_sta.Config.default with
         Hb_sta.Config.io_clock = Some "c1";
         multicycle = [ ("u1", 2) ];
         port_overrides =
           [ ( "din",
               { Hb_sta.Config.edge =
                   Hb_clock.Edge.trailing ~clock:"c1" ~pulse:0;
                 offset = 3.5 } ) ] }
     in
     [ ( "hbn",
         (fun text -> ignore (Hb_netlist.Hbn_format.parse ~library text)),
         false,
         sample "figure1.hbn" :: sample "latch_ring.hbn"
         :: List.map (fun (d, _) -> Hb_netlist.Hbn_format.write d) designs );
       ( "blif",
         (fun text -> ignore (Hb_netlist.Blif.parse ~library text)),
         false,
         [ sample "gated.blif";
           "# gate level\n.model two\t# named\n.inputs a b \\\n  c\n\
            .outputs y\n.latch n1 q re clk 0\n.gate nand2_x1 a=a b=b y=n1\n\
            .names q c y\n11 1\n.end\n" ] );
       ( "hbc",
         (fun text -> ignore (Hb_clock.System.parse text)),
         true,
         sample "figure1.hbc" :: sample "latch_ring.hbc"
         :: List.map (fun (_, s) -> Hb_clock.System.to_string s) designs );
       ( "hbt",
         (fun text -> ignore (Hb_sta.Config_format.parse text)),
         true,
         [ sample "figure1.hbt"; Hb_sta.Config_format.to_string hbt ] );
       ( "hbd",
         (fun text -> ignore (Hb_sta.Annotation.parse text)),
         true,
         [ "# measured and what-if delays\ndelay u1 rise 1.85 fall 1.60\n\
            scale u2 0.8\n" ] ) ])

(* One to four edits, each deleting a byte, inserting one of the bytes
   the line formats give a meaning to, or duplicating a byte. *)
let mutate rng text =
  let alphabet = " \t\r\n#\\=0123456789" in
  let edit text =
    let n = String.length text in
    let at = Hb_util.Rng.int rng (n + 1) in
    let before = String.sub text 0 at and after = String.sub text at (n - at) in
    match Hb_util.Rng.int rng 3 with
    | 0 when at < n -> before ^ String.sub after 1 (n - at - 1)
    | 1 when at < n -> before ^ String.make 1 text.[at] ^ after
    | _ ->
      let byte = alphabet.[Hb_util.Rng.int rng (String.length alphabet)] in
      before ^ String.make 1 byte ^ after
  in
  let rec apply k text = if k = 0 then text else apply (k - 1) (edit text) in
  apply (1 + Hb_util.Rng.int rng 4) text

let mutants_per_format = 2000

(* [f format must_parse read text] for every seed text and every mutant,
   the same texts on every call. *)
let iter_reader_inputs f =
  List.iter
    (fun (format, read, must_parse, seeds) ->
       let rng = Hb_util.Rng.create 0x5EEDL in
       List.iter (f format must_parse read) seeds;
       let seeds = Array.of_list seeds in
       for i = 0 to mutants_per_format - 1 do
         f format must_parse read (mutate rng seeds.(i mod Array.length seeds))
       done)
    (Lazy.force readers)

(* The line walk the readers of .hbc, .hbt and .hbd had before
   [Text.walk]: split at '\n' and ' ', drop empty tokens, skip '#'
   lines. *)
let reference_lines text =
  List.concat
    (List.mapi
       (fun i line ->
          match
            List.filter (fun s -> s <> "") (String.split_on_char ' ' line)
          with
          | [] -> []
          | first :: _ when first.[0] = '#' -> []
          | tokens -> [ (i + 1, tokens) ])
       (String.split_on_char '\n' text))

let test_walk_matches_reference () =
  iter_reader_inputs (fun format _ _ text ->
      let lines = ref [] in
      let last =
        Text.walk text (fun r ->
            lines := (r.Text.line, Text.tokens r) :: !lines)
      in
      if List.rev !lines <> reference_lines text then
        Alcotest.failf "%s: walk differs from the reference on %S" format text;
      Alcotest.(check int) "last line"
        (List.length (String.split_on_char '\n' text)) last)

let test_reader_errors_classified () =
  iter_reader_inputs (fun format must_parse read text ->
      match read text with
      | () -> ()
      | exception e ->
        (match Hb_sta.Error.of_exn e with
         | None ->
           Alcotest.failf "%s: unclassified %s on %S" format
             (Printexc.to_string e) text
         | Some err ->
           if must_parse && Hb_sta.Error.code err <> "parse" then
             Alcotest.failf "%s: %s on %S" format (Hb_sta.Error.to_string err)
               text))

let () =
  Alcotest.run "hb_fuzz"
    [ ("fuzz",
       [ Alcotest.test_case "regression seeds clean" `Quick
           test_regression_seeds_clean;
         Alcotest.test_case "params deterministic" `Quick
           test_params_deterministic;
         Alcotest.test_case "seed list deterministic" `Quick
           test_seed_list_deterministic;
         Alcotest.test_case "injection caught" `Quick test_injection_caught;
         Alcotest.test_case "budget stops early" `Quick test_budget_stops_early ]);
      ("artifact",
       [ Alcotest.test_case "failure json fields" `Quick
           test_failure_json_fields ]);
      ("golden",
       [ Alcotest.test_case "round trip" `Quick test_golden_roundtrip;
         Alcotest.test_case "diff detects drift" `Quick
           test_golden_diff_detects_drift;
         Alcotest.test_case "measure deterministic" `Quick
           test_golden_measure_deterministic;
         Alcotest.test_case "checked-in corpus" `Quick test_checked_in_corpus;
         Alcotest.test_case "default designs" `Quick
           test_default_designs_cover_catalog ]);
      ("readers",
       [ Alcotest.test_case "walk = split" `Quick test_walk_matches_reference;
         Alcotest.test_case "errors classified" `Quick
           test_reader_errors_classified ]);
    ]
