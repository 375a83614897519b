(* Sets of runs, each a child process of this executable so that peak
   RSS and GC state belong to one workload: the benchmark as a whole
   ([--benchmark]), the one-op smoke check ([--check]) and the comparison
   of two sets of runs ([--compare]). *)

module Json = Hb_util.Json

let member key json =
  match Json.member key json with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" key)

let number json = Option.value ~default:nan (Json.to_float json)

let fields = function Json.Obj fields -> fields | _ -> []

(* A metric of BENCHMARK.json. *)
type spec = {
  name : string;
  unit : string;
  lower_better : bool;
  bound : float;  (* nan for per-layer metrics *)
}

let load_specs () =
  let doc = Json.parse (Harness.read_file "BENCHMARK.json") in
  let text key m = Option.get (Json.to_text (member key m)) in
  let specs key =
    match member key doc with
    | Json.List items ->
      List.map
        (fun m ->
           { name = text "name" m;
             unit = text "unit" m;
             lower_better = text "better" m = "lower";
             bound = Option.fold ~none:nan ~some:number (Json.member "bound" m);
           })
        items
    | _ -> failwith ("BENCHMARK.json: " ^ key ^ " is not a list")
  in
  (specs "end_to_end", specs "per_layer")

(* Runs this executable with [args]; the parsed last line of its
   standard output when it printed a result, and whether it exited 0. *)
let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let last = ref None in
  (try
     while true do
       last := Some (input_line ic)
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let result =
    Option.bind !last (fun line -> Result.to_option (Json.parse_result line))
  in
  (result, status = Unix.WEXITED 0)

let run_args ~workload ~seed ~seconds ~trace =
  [ "--workload"; workload; "--seed"; string_of_int seed;
    "--seconds"; string_of_int seconds;
    "--trace"; (if trace then "1" else "0") ]

(* Metric name → its values over [results], in run order. *)
let metric_values results =
  List.fold_left
    (fun acc result ->
       List.fold_left
         (fun acc (name, m) ->
            let prev = Option.value ~default:[] (List.assoc_opt name acc) in
            (name, prev @ [ number (member "value" m) ])
            :: List.remove_assoc name acc)
         acc
         (fields (member "metrics" result)))
    [] results

let spread values =
  let q1, q3 = Harness.quartiles values in
  (q3 -. q1) /. Float.abs (Harness.median values)

let with_quartiles values =
  let q1, q3 = Harness.quartiles values in
  Printf.sprintf "%s [%s, %s]"
    (Harness.fmt (Harness.median values)) (Harness.fmt q1) (Harness.fmt q3)

(* Untraced runs per workload in [--benchmark]: the ten pairs the
   [improved] verdict of [--compare] needs. *)
let runs = 10

(* [--benchmark]: [runs] untraced runs per workload on seeds [seed],
   [seed+1], ..., then one traced run; a summary per workload and a
   results file [--compare] reads, which keeps every run's correctness
   and op counts. Exit 1 when a run was incorrect, 2 when one printed no
   result. *)
let benchmark ~workloads ~seed ~seconds ~out =
  let end_to_end, _ = load_specs () in
  let status = ref 0 in
  let docs =
    List.map
      (fun (w : Workloads.t) ->
         let walls = ref [] and records = ref [] in
         let go ~seed ~trace =
           let (result, ok), wall =
             Harness.timed (fun () ->
                 child
                   (run_args ~workload:w.Workloads.name ~seed ~seconds ~trace))
           in
           walls := wall :: !walls;
           let count key =
             Option.fold ~none:(Json.Number 0.0) ~some:(member key) result
           in
           let correct =
             ok
             && Option.bind result (fun r -> Json.to_bool (member "correct" r))
                = Some true
           in
           records :=
             Json.Obj
               [ ("seed", Json.Number (float_of_int seed));
                 ("trace", Json.Bool trace);
                 ("correct", Json.Bool correct);
                 ("attempted", count "attempted");
                 ("failed", count "failed") ]
             :: !records;
           if result = None then begin
             Printf.eprintf "%s seed %d: no result\n%!" w.Workloads.name seed;
             status := 2
           end
           else if not correct then status := Stdlib.max !status 1;
           result
         in
         let untraced =
           List.filter_map
             (fun i -> go ~seed:(seed + i) ~trace:false)
             (List.init runs Fun.id)
         in
         let traced = Option.to_list (go ~seed ~trace:true) in
         let values = metric_values untraced in
         Printf.printf
           "\n%s: %d runs of %d s, seeds %d..%d, plus one traced; \
            %.1f s per run\n"
           w.Workloads.name (List.length untraced) seconds seed
           (seed + runs - 1) (Harness.median !walls);
         Hb_util.Table.print
           ~header:[ "metric"; "unit"; "runs"; "median [q1, q3]"; "spread";
                     "bound" ]
           ~align:Hb_util.Table.[ Left; Left; Right; Right; Right; Right ]
           (List.filter_map
              (fun spec ->
                 Option.map
                   (fun vs ->
                      [ spec.name; spec.unit; string_of_int (List.length vs);
                        with_quartiles vs; Printf.sprintf "%.4f" (spread vs);
                        Harness.fmt spec.bound ])
                   (List.assoc_opt spec.name values))
              end_to_end);
         let series results =
           Json.Obj
             (List.map
                (fun (name, vs) ->
                   (name, Json.List (List.map (fun v -> Json.Number v) vs)))
                (metric_values results))
         in
         ( w.Workloads.name,
           Json.Obj
             [ ("runs", Json.List (List.rev !records));
               ("end_to_end", series untraced);
               ("per_layer", series traced) ] ))
      workloads
  in
  Harness.write_file out
    (Json.to_string
       (Json.Obj
          [ ("seed", Json.Number (float_of_int seed));
            ("seconds", Json.Number (float_of_int seconds));
            ("workloads", Json.Obj docs) ]));
  Printf.printf "\nwrote %s\n" out;
  !status

(* [--check]: every workload for one op per client ([--seconds 0]),
   untraced and traced, all gates on; each result must name exactly the
   metrics BENCHMARK.json lists. Times are not gated. *)
let check ~workloads =
  let end_to_end, per_layer = load_specs () in
  let names specs = List.sort compare (List.map (fun s -> s.name) specs) in
  let problems =
    List.concat_map
      (fun (w : Workloads.t) ->
         List.concat_map
           (fun trace ->
              let label =
                Printf.sprintf "%s (trace %d)" w.Workloads.name
                  (Bool.to_int trace)
              in
              let (result, ok), wall =
                Harness.timed (fun () ->
                    child
                      (run_args ~workload:w.Workloads.name ~seed:97 ~seconds:0
                         ~trace))
              in
              Printf.printf "%-28s %.1f s\n%!" label wall;
              match result with
              | None -> [ label ^ ": no result" ]
              | Some r ->
                let got =
                  List.sort compare
                    (List.map fst (fields (member "metrics" r)))
                in
                (if ok && Json.to_bool (member "correct" r) = Some true then []
                 else [ label ^ ": incorrect or failed" ])
                @
                if got = names (if trace then per_layer else end_to_end) then
                  []
                else [ label ^ ": metric names differ from BENCHMARK.json" ])
           [ false; true ])
      workloads
  in
  List.iter (Printf.printf "CHECK FAILED %s\n") problems;
  if problems = [] then (print_endline "check passed"; 0) else 1

(* [--compare base next]: one row per (workload, end-to-end metric). A
   row is incorrect when a run of the workload, on either side, failed
   an op or a gate or printed no result; no other verdict is given
   then. It is worse when the new median is worse than the base median
   by more than the metric's bound. It is improved when the new run
   beats the base run of the same seed in at least nine pairs in ten and
   the medians differ by more than the base's own quartile spread. It is
   unresolved when either side's spread is wider than the bound, unless
   every new run beats every base run. Exit 1 on any worse or incorrect
   row. *)
let compare ~base ~next =
  let end_to_end, per_layer = load_specs () in
  let load path = member "workloads" (Json.parse (Harness.read_file path)) in
  let base = load base and next = load next in
  let values doc workload section name =
    match Json.member workload doc with
    | None -> None
    | Some w ->
      (match Json.member name (member section w) with
       | Some (Json.List (_ :: _ as vs)) -> Some (List.map number vs)
       | _ -> None)
  in
  (* Every run of [workload] in [doc] was correct, and their op counts. *)
  let health doc workload =
    let records =
      match Option.map (member "runs") (Json.member workload doc) with
      | Some (Json.List records) -> records
      | _ -> []
    in
    let sum key =
      List.fold_left (fun n r -> n +. number (member key r)) 0.0 records
    in
    ( records <> []
      && List.for_all
           (fun r -> Json.to_bool (member "correct" r) = Some true)
           records,
      sum "attempted",
      sum "failed" )
  in
  let workloads = List.map fst (fields base) in
  let flagged = ref false in
  List.iter
    (fun workload ->
       let show label (ok, attempted, failed) =
         Printf.sprintf "%s %s (%.0f of %.0f ops failed)" label
           (if ok then "correct" else "INCORRECT")
           failed attempted
       in
       Printf.printf "%s: %s; %s\n" workload
         (show "base" (health base workload))
         (show "new" (health next workload)))
    workloads;
  let rows =
    List.concat_map
      (fun workload ->
         let clean =
           let ok doc = let ok, _, _ = health doc workload in ok in
           ok base && ok next
         in
         List.filter_map
           (fun spec ->
              match
                ( values base workload "end_to_end" spec.name,
                  values next workload "end_to_end" spec.name )
              with
              | Some b, Some n ->
                let mb = Harness.median b and mn = Harness.median n in
                let signed = if spec.lower_better then 1.0 else -1.0 in
                let worse_by = signed *. (mn -. mb) /. Float.abs mb in
                let wide = spread b > spec.bound || spread n > spec.bound in
                let beats x y = signed *. (x -. y) < 0.0 in
                let all_better =
                  List.for_all (fun x -> List.for_all (beats x) b) n
                in
                (* Runs i of both sets used seed [seed + i]: a pair. *)
                let pairs = Stdlib.min (List.length b) (List.length n) in
                let wins =
                  List.length
                    (List.filter Fun.id
                       (List.init pairs (fun i ->
                            beats (List.nth n i) (List.nth b i))))
                in
                let verdict =
                  if not clean then "incorrect"
                  else if Float.is_nan worse_by then "unresolved"
                  else if wide then
                    if all_better then "improved" else "unresolved"
                  else if worse_by > spec.bound then "worse"
                  else if
                    10 * wins >= 9 * pairs && -.worse_by > spread b
                  then "improved"
                  else "unchanged"
                in
                if verdict = "worse" || verdict = "incorrect" then
                  flagged := true;
                Some
                  [ workload; spec.name; with_quartiles b; with_quartiles n;
                    Printf.sprintf "%+.2f%%"
                      (100.0 *. (mn -. mb) /. Float.abs mb);
                    Harness.fmt spec.bound; verdict ]
              | _ -> None)
           end_to_end)
      workloads
  in
  Hb_util.Table.print
    ~header:[ "workload"; "metric"; "base median [q1, q3]";
              "new median [q1, q3]"; "delta"; "bound"; "verdict" ]
    rows;
  (* The layer whose time moved most, from the traced runs; [ledger.op_ms]
     is the whole op, which every layer adds up to. *)
  let moves =
    List.concat_map
      (fun workload ->
         List.filter_map
           (fun spec ->
              let to_ms =
                match spec.unit with
                | _ when spec.name = "ledger.op_ms" -> None
                | "s" -> Some 1000.0
                | "ms" -> Some 1.0
                | _ -> None
              in
              match
                ( to_ms,
                  values base workload "per_layer" spec.name,
                  values next workload "per_layer" spec.name )
              with
              | Some k, Some b, Some n ->
                Some
                  ( workload,
                    spec.name,
                    k *. (Harness.median n -. Harness.median b) )
              | _ -> None)
           per_layer)
      workloads
  in
  (match
     List.sort
       (fun (_, _, a) (_, _, b) -> Float.compare (Float.abs b) (Float.abs a))
       moves
   with
   | (workload, layer, delta) :: _ ->
     Printf.printf "\nlayer that moved most: %s on %s, %+.3f ms\n" layer
       workload delta
   | [] -> ());
  if !flagged then 1 else 0
