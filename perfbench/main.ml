(* The benchmark; see README.md.

   One run (what BENCHMARK.json's command runs):
     main.exe --workload NAME --seed N --seconds S --trace 0|1
   (--seconds 0: one set-up and one op per client)
   Sets of runs:
     main.exe --benchmark [--workload NAME] [--seed N] [--seconds S]
              [--out FILE]
     main.exe --check
     main.exe --compare BASE.json NEW.json *)

let () =
  let workload = ref None and seed = ref 97 and seconds = ref 10 in
  let trace = ref 0 in
  let out = ref (Filename.concat Harness.out_dir "results.json") in
  let mode = ref `Run and prepare_dir = ref "" and files = ref [] in
  let specs =
    [ ("--workload", Arg.String (fun s -> workload := Some s),
       "NAME one workload");
      ("--seed", Arg.Set_int seed,
       "N workload seed (default 97); it drives the what-if edits");
      ("--seconds", Arg.Set_int seconds,
       "S measured seconds per run (default 10)");
      ("--trace", Arg.Set_int trace,
       "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--benchmark", Arg.Unit (fun () -> mode := `Benchmark),
       " every workload, 10 runs each and a traced one");
      ("--out", Arg.Set_string out, "FILE results file of --benchmark");
      ("--check", Arg.Unit (fun () -> mode := `Check),
       " one op of every workload, gates on");
      ("--compare", Arg.Unit (fun () -> mode := `Compare),
       " BASE.json NEW.json");
      ("--prepare",
       Arg.String (fun s -> workload := Some s; mode := `Prepare),
       "NAME write the inputs of a workload and print the seconds taken \
        (used by a run)");
      ("--dir", Arg.Set_string prepare_dir, "DIR where --prepare writes") ]
  in
  Arg.parse specs (fun f -> files := !files @ [ f ]) "perfbench: see README.md";
  let workloads () =
    match !workload with
    | None -> Workloads.all
    | Some name ->
      (match Workloads.find name with
       | Some w -> [ w ]
       | None ->
         Printf.eprintf "unknown workload %s (one of: %s)\n" name
           (String.concat ", "
              (List.map (fun w -> w.Workloads.name) Workloads.all));
         exit 2)
  in
  let code =
    try
      match !mode with
      | `Prepare ->
        let (), seconds =
          Harness.timed (fun () ->
              List.iter
                (fun (w : Workloads.t) ->
                   w.Workloads.prepare ~dir:!prepare_dir)
                (workloads ()))
        in
        Printf.printf "%.9f\n" seconds;
        0
      | `Benchmark ->
        Suite.benchmark ~workloads:(workloads ()) ~seed:!seed
          ~seconds:!seconds ~out:!out
      | `Check -> Suite.check ~workloads:(workloads ())
      | `Compare ->
        (match !files with
         | [ base; next ] -> Suite.compare ~base ~next
         | _ -> prerr_endline "--compare takes BASE.json NEW.json"; 2)
      | `Run ->
        (match workloads () with
         | [ w ] ->
           Run.run w ~seed:!seed ~seconds:(float_of_int !seconds)
             ~trace:(!trace = 1)
         | _ -> prerr_endline "--workload NAME is required"; 2)
    with e ->
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      2
  in
  exit code
