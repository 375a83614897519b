(* The k-worst path engine (Paths.enumerate and its fan-out helpers).

   The engine's contract is exact: the pooled, pruned best-first search
   must rank and value paths bit-for-bit like the naive reference, the
   exhaustive flat-graph walk of Reference.paths. Equal-slack paths may
   permute between implementations, so ordering checks compare the
   per-rank slack sequence exactly and membership within tie groups. *)

let eq_time x y = Float.compare x y = 0

let eq_hop (a : Hb_sta.Paths.hop) (b : Hb_sta.Paths.hop) =
  a.Hb_sta.Paths.net = b.Hb_sta.Paths.net
  && a.Hb_sta.Paths.via = b.Hb_sta.Paths.via
  && eq_time a.Hb_sta.Paths.at b.Hb_sta.Paths.at

let eq_path (a : Hb_sta.Paths.path) (b : Hb_sta.Paths.path) =
  a.Hb_sta.Paths.start_element = b.Hb_sta.Paths.start_element
  && a.Hb_sta.Paths.end_element = b.Hb_sta.Paths.end_element
  && a.Hb_sta.Paths.cluster = b.Hb_sta.Paths.cluster
  && a.Hb_sta.Paths.cut = b.Hb_sta.Paths.cut
  && eq_time a.Hb_sta.Paths.slack b.Hb_sta.Paths.slack
  && List.length a.Hb_sta.Paths.hops = List.length b.Hb_sta.Paths.hops
  && List.for_all2 eq_hop a.Hb_sta.Paths.hops b.Hb_sta.Paths.hops

(* NB a (net, via) hop list does NOT identify a path uniquely: a gate
   with two input pins tied to one net yields two distinct arc-level
   paths whose rendered hops coincide. Both enumerators count them
   separately, so the full enumerations are compared as multisets. *)
let sort_paths ps =
  List.sort
    (fun (a : Hb_sta.Paths.path) (b : Hb_sta.Paths.path) ->
       Stdlib.compare
         ( a.Hb_sta.Paths.slack, a.Hb_sta.Paths.start_element,
           a.Hb_sta.Paths.hops )
         ( b.Hb_sta.Paths.slack, b.Hb_sta.Paths.start_element,
           b.Hb_sta.Paths.hops ))
    ps

let settled_ctx ?(config = Hb_sta.Config.sequential) seed =
  let design, system = Hb_workload.Soup.random ~seed () in
  let ctx = Hb_sta.Context.make ~design ~system ~config () in
  let outcome = Hb_sta.Algorithm1.run ctx in
  (ctx, outcome.Hb_sta.Algorithm1.final)

let endpoints_of slacks ~limit =
  List.map fst (Hb_sta.Paths.worst_endpoints slacks ~limit)

let slack_of (p : Hb_sta.Paths.path) = p.Hb_sta.Paths.slack

(* ------------------------------------------------------------------ *)
(* enumerate vs the exhaustive walk                                   *)
(* ------------------------------------------------------------------ *)

let prop_enumerate_matches_exhaustive =
  QCheck.Test.make ~name:"enumerate = exhaustive DFS (rank slacks, membership)"
    ~count:25
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
       let ctx, slacks = settled_ctx (Int64.of_int seed) in
       let endpoints = endpoints_of slacks ~limit:6 in
       let graph = Hb_sta.Reference.graph ctx in
       List.for_all
         (fun endpoint ->
            match Hb_sta.Reference.paths ~max_paths:200_000 graph ~endpoint with
            | exception Hb_sta.Reference.Budget_exhausted -> true
            | exhaustive ->
              List.for_all
                (fun limit ->
                   let got = Hb_sta.Paths.enumerate ctx ~endpoint ~limit in
                   (* Exactly min(limit, total) paths come back... *)
                   List.length got
                   = Stdlib.min limit (List.length exhaustive)
                   (* ...a full enumeration is the exact same multiset... *)
                   && (List.length got < List.length exhaustive
                       || List.for_all2 eq_path (sort_paths got)
                            (sort_paths exhaustive))
                   (* ...rank-for-rank the slack sequences agree exactly... *)
                   && List.for_all2 eq_time (List.map slack_of got)
                        (List.filteri (fun i _ -> i < List.length got)
                           (List.map slack_of exhaustive))
                   (* ...and every returned path is a real path: same
                      route, arrivals and slack as some exhaustive one. *)
                   && List.for_all
                        (fun p -> List.exists (eq_path p) exhaustive)
                        got)
                [ 1; 5; 7; 100; 10_000 ])
         endpoints)

(* Soup seed 121060 caught the bounded search one path short: a state's
   bound and its completion's arrival round the same delays in different
   orders, and at these (endpoint, limit) pairs the search stopped before
   a path a few ulps above the k-th one it had found. *)
let test_pinned_soup_121060 () =
  let ctx, _ = settled_ctx 121060L in
  let graph = Hb_sta.Reference.graph ctx in
  let hex paths = List.map (fun p -> Printf.sprintf "%h" (slack_of p)) paths in
  List.iter
    (fun (endpoint, limit) ->
       Alcotest.(check (list string))
         (Printf.sprintf "endpoint %d, limit %d: rank slacks" endpoint limit)
         (List.filteri (fun i _ -> i < limit)
            (hex (Hb_sta.Reference.paths graph ~endpoint)))
         (hex (Hb_sta.Paths.enumerate ctx ~endpoint ~limit)))
    [ (0, 7); (1, 6); (1, 7) ]

(* ------------------------------------------------------------------ *)
(* worst_endpoints vs full sort                                       *)
(* ------------------------------------------------------------------ *)

let check_worst_endpoints seed (slacks : Hb_sta.Slacks.t) =
  let reference limit =
    if limit <= 0 then []
    else begin
      let all = ref [] in
      Array.iteri
        (fun e s -> if Hb_util.Time.is_finite s then all := (e, s) :: !all)
        slacks.Hb_sta.Slacks.element_input_slack;
      let sorted =
        (* Ascending slack; equal slacks break on descending element id,
           the bounded heap's documented tie rule. *)
        List.sort
          (fun (e1, s1) (e2, s2) ->
             match Float.compare s1 s2 with
             | 0 -> Stdlib.compare e2 e1
             | c -> c)
          !all
      in
      List.filteri (fun i _ -> i < limit) sorted
    end
  in
  List.iter
    (fun limit ->
       let got = Hb_sta.Paths.worst_endpoints slacks ~limit in
       let want = reference limit in
       let what = Printf.sprintf "seed %Ld, limit %d" seed limit in
       Alcotest.(check int) (what ^ ": length") (List.length want)
         (List.length got);
       List.iter2
         (fun (e, s) (e', s') ->
            Alcotest.(check int) (what ^ ": element") e e';
            Alcotest.(check bool) (what ^ ": slack") true (eq_time s s'))
         want got)
    [ 0; 1; 3; 1000 ]

let test_worst_endpoints_matches_sort () =
  List.iter
    (fun seed -> check_worst_endpoints seed (snd (settled_ctx seed)))
    [ 42L; 5L; 9L; 1_000L; 121_060L ]

(* ------------------------------------------------------------------ *)
(* parallel fan-out determinism                                       *)
(* ------------------------------------------------------------------ *)

let parallel_config =
  { Hb_sta.Config.sequential with Hb_sta.Config.parallel_jobs = 3 }

let test_parallel_fanout_matches_sequential () =
  let seq_ctx, slacks = settled_ctx 9L in
  let par_ctx, _ = settled_ctx ~config:parallel_config 9L in
  let endpoints = endpoints_of slacks ~limit:8 in
  let seq = Hb_sta.Paths.enumerate_many seq_ctx ~endpoints ~limit:10 in
  let par = Hb_sta.Paths.enumerate_many par_ctx ~endpoints ~limit:10 in
  Alcotest.(check int) "one result slot per endpoint" (List.length seq)
    (List.length par);
  List.iteri
    (fun i (a, b) ->
       Alcotest.(check int)
         (Printf.sprintf "endpoint %d: path count" i)
         (List.length a) (List.length b);
       Alcotest.(check bool)
         (Printf.sprintf "endpoint %d: identical paths" i)
         true
         (List.for_all2 eq_path a b))
    (List.combine seq par);
  (* worst_paths fans out the same way; spot-check it too. *)
  let seq_worst = Hb_sta.Paths.worst_paths seq_ctx slacks ~limit:8 in
  let par_slacks = Hb_sta.Slacks.compute par_ctx in
  let par_worst = Hb_sta.Paths.worst_paths par_ctx par_slacks ~limit:8 in
  Alcotest.(check bool) "worst_paths identical" true
    (List.length seq_worst = List.length par_worst
     && List.for_all2 eq_path seq_worst par_worst)

(* ------------------------------------------------------------------ *)
(* edge cases                                                         *)
(* ------------------------------------------------------------------ *)

let test_enumerate_edge_cases () =
  let ctx, slacks = settled_ctx 5L in
  (match endpoints_of slacks ~limit:1 with
   | [ endpoint ] ->
     Alcotest.(check int) "limit 0 yields nothing" 0
       (List.length (Hb_sta.Paths.enumerate ctx ~endpoint ~limit:0))
   | _ -> Alcotest.fail "soup has no constrained endpoint");
  Alcotest.(check int) "limit 0 worst_endpoints" 0
    (List.length (Hb_sta.Paths.worst_endpoints slacks ~limit:0));
  Alcotest.(check int) "enumerate_many [] yields []" 0
    (List.length (Hb_sta.Paths.enumerate_many ctx ~endpoints:[] ~limit:5))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_enumerate_matches_exhaustive ]
  in
  Alcotest.run "hb_paths"
    [ ("selection",
       [ Alcotest.test_case "worst_endpoints = full sort" `Quick
           test_worst_endpoints_matches_sort ]);
      ("fanout",
       [ Alcotest.test_case "parallel = sequential" `Quick
           test_parallel_fanout_matches_sequential ]);
      ("edges",
       [ Alcotest.test_case "degenerate limits" `Quick
           test_enumerate_edge_cases ]);
      ("pinned",
       [ Alcotest.test_case "soup 121060 rank slacks" `Quick
           test_pinned_soup_121060 ]);
      ("properties", qsuite);
    ]
