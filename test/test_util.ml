(* Unit and property tests for the Hb_util support library. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Time                                                               *)
(* ------------------------------------------------------------------ *)

let test_time_compare () =
  Alcotest.(check bool) "equal within eps" true (Hb_util.Time.equal 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "lt strict" true (Hb_util.Time.lt 1.0 2.0);
  Alcotest.(check bool) "lt not within eps" false (Hb_util.Time.lt 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "le equal" true (Hb_util.Time.le 1.0 1.0);
  Alcotest.(check bool) "ge" true (Hb_util.Time.ge 2.0 1.0);
  Alcotest.(check bool) "negative" true (Hb_util.Time.is_negative (-0.5));
  Alcotest.(check bool) "not negative at zero" false (Hb_util.Time.is_negative 0.0)

let test_time_modulo () =
  check_float "in range" 2.5 (Hb_util.Time.modulo 12.5 ~period:10.0);
  check_float "negative wraps" 7.5 (Hb_util.Time.modulo (-2.5) ~period:10.0);
  check_float "zero" 0.0 (Hb_util.Time.modulo 0.0 ~period:10.0);
  check_float "exact period" 0.0 (Hb_util.Time.modulo 10.0 ~period:10.0)

let test_time_clamp () =
  check_float "below" 1.0 (Hb_util.Time.clamp ~lo:1.0 ~hi:2.0 0.0);
  check_float "above" 2.0 (Hb_util.Time.clamp ~lo:1.0 ~hi:2.0 3.0);
  check_float "inside" 1.5 (Hb_util.Time.clamp ~lo:1.0 ~hi:2.0 1.5);
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Time.clamp: empty interval [2, 1]")
    (fun () -> ignore (Hb_util.Time.clamp ~lo:2.0 ~hi:1.0 0.0))

(* The float-typed min/max must pick the very operand the polymorphic
   Stdlib versions pick, bit for bit, on the awkward inputs: NaN on
   either side, both signed zeros, and the infinities. *)
let test_time_min_max () =
  let specials =
    [ Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity; 1.0; -1.0 ]
  in
  let bits = Int64.bits_of_float in
  List.iter
    (fun a ->
       List.iter
         (fun b ->
            let same name ours theirs =
              if bits ours <> bits theirs then
                Alcotest.failf "%s %h %h: got %h, Stdlib gives %h" name a b
                  ours theirs
            in
            same "min" (Hb_util.Time.min a b) (Stdlib.min a b);
            same "max" (Hb_util.Time.max a b) (Stdlib.max a b))
         specials)
    specials

let prop_modulo_in_range =
  QCheck.Test.make ~name:"Time.modulo lands in [0, period)" ~count:500
    QCheck.(pair (float_range (-1000.0) 1000.0) (float_range 0.5 100.0))
    (fun (t, period) ->
       let r = Hb_util.Time.modulo t ~period in
       r >= 0.0 && r < period)

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Hb_util.Rng.create 42L and b = Hb_util.Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Hb_util.Rng.next a) (Hb_util.Rng.next b)
  done

let test_rng_copy () =
  let a = Hb_util.Rng.create 7L in
  ignore (Hb_util.Rng.next a);
  let b = Hb_util.Rng.copy a in
  Alcotest.(check int64) "copy continues stream" (Hb_util.Rng.next a) (Hb_util.Rng.next b)

let test_rng_bounds () =
  let rng = Hb_util.Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Hb_util.Rng.int rng 17 in
    Alcotest.(check bool) "int in bound" true (v >= 0 && v < 17);
    let f = Hb_util.Rng.float rng 3.0 in
    Alcotest.(check bool) "float in bound" true (f >= 0.0 && f < 3.0)
  done

let test_rng_shuffle_permutes () =
  let rng = Hb_util.Rng.create 5L in
  let items = Array.init 50 (fun i -> i) in
  Hb_util.Rng.shuffle rng items;
  let sorted = Array.copy items in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 50 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Topo                                                               *)
(* ------------------------------------------------------------------ *)

let graph_of_edges nodes edges =
  let succ = Array.make nodes [] in
  List.iter (fun (a, b) -> succ.(a) <- b :: succ.(a)) edges;
  fun i -> succ.(i)

let check_topological_order order edges =
  let position = Array.make (Array.length order) 0 in
  Array.iteri (fun i node -> position.(node) <- i) order;
  List.for_all (fun (a, b) -> position.(a) < position.(b)) edges

let test_topo_chain () =
  let edges = [ (0, 1); (1, 2); (2, 3) ] in
  match Hb_util.Topo.sort ~nodes:4 ~successors:(graph_of_edges 4 edges) with
  | Hb_util.Topo.Sorted order ->
    Alcotest.(check bool) "respects edges" true (check_topological_order order edges)
  | Hb_util.Topo.Cycle _ -> Alcotest.fail "unexpected cycle"

let test_topo_diamond () =
  let edges = [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  match Hb_util.Topo.sort ~nodes:4 ~successors:(graph_of_edges 4 edges) with
  | Hb_util.Topo.Sorted order ->
    Alcotest.(check bool) "respects edges" true (check_topological_order order edges)
  | Hb_util.Topo.Cycle _ -> Alcotest.fail "unexpected cycle"

let test_topo_cycle () =
  let edges = [ (0, 1); (1, 2); (2, 0) ] in
  match Hb_util.Topo.sort ~nodes:3 ~successors:(graph_of_edges 3 edges) with
  | Hb_util.Topo.Sorted _ -> Alcotest.fail "expected a cycle"
  | Hb_util.Topo.Cycle c ->
    Alcotest.(check int) "cycle length" 3 (List.length c);
    (* Each consecutive pair (and the wrap-around) must be an edge. *)
    let arr = Array.of_list c in
    let n = Array.length arr in
    for i = 0 to n - 1 do
      let a = arr.(i) and b = arr.((i + 1) mod n) in
      Alcotest.(check bool)
        (Printf.sprintf "edge %d->%d exists" a b)
        true (List.mem (a, b) edges)
    done

let test_topo_self_loop () =
  match Hb_util.Topo.sort ~nodes:1 ~successors:(fun _ -> [ 0 ]) with
  | Hb_util.Topo.Sorted _ -> Alcotest.fail "expected a cycle"
  | Hb_util.Topo.Cycle c -> Alcotest.(check (list int)) "self loop" [ 0 ] c

let test_topo_empty () =
  match Hb_util.Topo.sort ~nodes:0 ~successors:(fun _ -> []) with
  | Hb_util.Topo.Sorted order -> Alcotest.(check int) "empty" 0 (Array.length order)
  | Hb_util.Topo.Cycle _ -> Alcotest.fail "unexpected cycle"

let prop_topo_random_dag =
  (* Random DAGs (edges only from lower to higher index) always sort. *)
  QCheck.Test.make ~name:"Topo.sort orders random DAGs" ~count:100
    QCheck.(pair (int_range 1 30) (small_list (pair (int_range 0 28) (int_range 1 29))))
    (fun (nodes, raw_edges) ->
       let edges =
         List.filter_map
           (fun (a, b) ->
              let a = a mod nodes and b = b mod nodes in
              if a < b then Some (a, b) else if b < a then Some (b, a) else None)
           raw_edges
       in
       match Hb_util.Topo.sort ~nodes ~successors:(graph_of_edges nodes edges) with
       | Hb_util.Topo.Sorted order -> check_topological_order order edges
       | Hb_util.Topo.Cycle _ -> false)

(* ------------------------------------------------------------------ *)
(* Interval                                                           *)
(* ------------------------------------------------------------------ *)

let test_interval_basics () =
  let i = Hb_util.Interval.make ~lo:1.0 ~hi:3.0 in
  Alcotest.(check bool) "mem inside" true (Hb_util.Interval.mem 2.0 i);
  Alcotest.(check bool) "mem boundary" true (Hb_util.Interval.mem 3.0 i);
  Alcotest.(check bool) "mem outside" false (Hb_util.Interval.mem 3.5 i);
  check_float "width" 2.0 (Hb_util.Interval.width i);
  check_float "clamp low" 1.0 (Hb_util.Interval.clamp 0.0 i);
  check_float "headroom down" 1.0 (Hb_util.Interval.headroom_down 2.0 i);
  check_float "headroom up" 1.0 (Hb_util.Interval.headroom_up 2.0 i)

let test_interval_point () =
  let i = Hb_util.Interval.point 5.0 in
  check_float "width zero" 0.0 (Hb_util.Interval.width i);
  check_float "no headroom" 0.0 (Hb_util.Interval.headroom_down 5.0 i)

let test_interval_empty () =
  Alcotest.check_raises "rejects empty"
    (Invalid_argument "Interval.make: [2, 1] is empty")
    (fun () -> ignore (Hb_util.Interval.make ~lo:2.0 ~hi:1.0))

(* ------------------------------------------------------------------ *)
(* Table                                                              *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let out =
    Hb_util.Table.render ~header:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "long-name"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "line count" 4 (List.length lines);
  List.iter
    (fun line ->
       Alcotest.(check bool) "consistent width" true
         (String.length line <= String.length (List.nth lines 0)
          || String.length line = String.length (List.nth lines 1)))
    lines

let test_table_rejects_ragged () =
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Table.render: row 0 has 1 cells, expected 2")
    (fun () -> ignore (Hb_util.Table.render ~header:[ "a"; "b" ] [ [ "x" ] ]))

let test_rng_choose () =
  let rng = Hb_util.Rng.create 3L in
  let items = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "choose picks a member" true
      (Array.mem (Hb_util.Rng.choose rng items) items)
  done;
  Alcotest.check_raises "empty array"
    (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Hb_util.Rng.choose rng [||]))

let test_table_no_rows () =
  let out = Hb_util.Table.render ~header:[ "a"; "b" ] [] in
  Alcotest.(check int) "header and rule only" 2
    (List.length (String.split_on_char '\n' out))

let test_time_boundary_comparisons () =
  (* Values well inside eps are equal, beyond eps ordered. *)
  Alcotest.(check bool) "half-eps apart equal" true
    (Hb_util.Time.equal 1.0 (1.0 +. 5e-10));
  Alcotest.(check bool) "2eps apart lt" true (Hb_util.Time.lt 1.0 (1.0 +. 2e-9));
  Alcotest.(check bool) "le within eps" true (Hb_util.Time.le (1.0 +. 5e-10) 1.0);
  Alcotest.(check bool) "infinite not finite" false (Hb_util.Time.is_finite infinity);
  Alcotest.(check bool) "nan not finite" false (Hb_util.Time.is_finite Float.nan)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                          *)
(* ------------------------------------------------------------------ *)

let with_telemetry f =
  Hb_util.Telemetry.set_enabled true;
  Hb_util.Telemetry.reset ();
  Fun.protect
    ~finally:(fun () ->
        Hb_util.Telemetry.set_enabled false;
        Hb_util.Telemetry.reset ())
    f

let counter_value snapshot name =
  match List.assoc_opt name snapshot.Hb_util.Telemetry.counters with
  | Some v -> v
  | None -> Alcotest.fail ("counter not registered: " ^ name)

let test_telemetry_counters () =
  let c = Hb_util.Telemetry.counter "test.counter_basic" in
  (* Disabled: writes are dropped. *)
  Hb_util.Telemetry.set_enabled false;
  Hb_util.Telemetry.incr c;
  with_telemetry (fun () ->
      let s0 = Hb_util.Telemetry.snapshot () in
      Alcotest.(check int) "reset to zero" 0 (counter_value s0 "test.counter_basic");
      Hb_util.Telemetry.incr c;
      Hb_util.Telemetry.add c 41;
      let s = Hb_util.Telemetry.snapshot () in
      Alcotest.(check int) "accumulated" 42 (counter_value s "test.counter_basic");
      (* Interning: the same name yields the same counter. *)
      let c' = Hb_util.Telemetry.counter "test.counter_basic" in
      Hb_util.Telemetry.incr c';
      let s' = Hb_util.Telemetry.snapshot () in
      Alcotest.(check int) "interned" 43 (counter_value s' "test.counter_basic"))

let test_telemetry_gauges () =
  let g = Hb_util.Telemetry.gauge "test.gauge_max" in
  with_telemetry (fun () ->
      let unset = Hb_util.Telemetry.snapshot () in
      Alcotest.(check bool) "unset gauge hidden" true
        (List.assoc_opt "test.gauge_max" unset.Hb_util.Telemetry.gauges = None);
      Hb_util.Telemetry.set_gauge g 7.0;
      Hb_util.Telemetry.set_gauge g 3.0;
      let s = Hb_util.Telemetry.snapshot () in
      match List.assoc_opt "test.gauge_max" s.Hb_util.Telemetry.gauges with
      | Some v -> check_float "last write on one domain" 3.0 v
      | None -> Alcotest.fail "gauge missing from snapshot")

let test_telemetry_spans () =
  with_telemetry (fun () ->
      let result =
        Hb_util.Telemetry.span "test.span_outer" (fun () ->
            Hb_util.Telemetry.span "test.span_inner" (fun () -> ());
            17)
      in
      Alcotest.(check int) "span returns" 17 result;
      (match Hb_util.Telemetry.span "test.span_raise" (fun () -> failwith "boom") with
       | _ -> Alcotest.fail "expected raise"
       | exception Failure _ -> ());
      let s = Hb_util.Telemetry.snapshot () in
      let names =
        List.map
          (fun sp -> sp.Hb_util.Telemetry.span_name)
          s.Hb_util.Telemetry.spans
      in
      Alcotest.(check bool) "all spans recorded (raising included)" true
        (List.mem "test.span_outer" names
         && List.mem "test.span_inner" names
         && List.mem "test.span_raise" names);
      List.iter
        (fun sp ->
           Alcotest.(check bool) "non-negative wall" true
             (sp.Hb_util.Telemetry.wall_s >= 0.0))
        s.Hb_util.Telemetry.spans;
      let aggregated = Hb_util.Telemetry.aggregate_spans s in
      Alcotest.(check int) "three aggregate rows" 3 (List.length aggregated))

let test_telemetry_parallel_merge () =
  (* Counter sums are deterministic no matter how a pool splits the
     work: every participating domain writes its own shard and the
     snapshot merges them. *)
  let c = Hb_util.Telemetry.counter "test.parallel_sum" in
  let expected = 1000 * 999 / 2 in
  let totals =
    List.map
      (fun jobs ->
         with_telemetry (fun () ->
             let pool = Hb_util.Pool.create ~jobs () in
             Hb_util.Pool.run ~label:"test.parallel_job" pool ~count:1000
               (fun i -> Hb_util.Telemetry.add c i);
             let s = Hb_util.Telemetry.snapshot () in
             Hb_util.Pool.shutdown pool;
             counter_value s "test.parallel_sum"))
      [ 1; 2; 4 ]
  in
  List.iteri
    (fun i total ->
       Alcotest.(check int)
         (Printf.sprintf "jobs run %d sums exactly" i)
         expected total)
    totals

let test_telemetry_trace_json () =
  let trace =
    with_telemetry (fun () ->
        Hb_util.Telemetry.span "test.trace_span" (fun () -> ());
        Hb_util.Telemetry.trace_json (Hb_util.Telemetry.snapshot ()))
  in
  let contains needle =
    let n = String.length needle and h = String.length trace in
    let rec scan i =
      i + n <= h && (String.sub trace i n = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "traceEvents wrapper" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "complete event" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "thread metadata" true (contains "\"thread_name\"");
  Alcotest.(check bool) "span name present" true (contains "\"test.trace_span\"");
  Alcotest.(check bool) "balanced braces" true
    (let depth = ref 0 in
     String.iter
       (fun ch ->
          if ch = '{' then incr depth
          else if ch = '}' then decr depth)
       trace;
     !depth = 0)

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i =
    i + n <= h && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

let test_histogram_basic () =
  let h =
    Hb_util.Telemetry.histogram ~buckets:[| 1.0; 2.0; 5.0 |]
      "test.histo_basic"
  in
  (* Disabled: observations are dropped. *)
  Hb_util.Telemetry.set_enabled false;
  Hb_util.Telemetry.observe h 1.0;
  with_telemetry (fun () ->
      List.iter
        (Hb_util.Telemetry.observe h)
        [ 0.5; 1.0; 1.5; 2.0; 4.0; 100.0 ];
      let s = Hb_util.Telemetry.snapshot () in
      let histo =
        match
          List.find_opt
            (fun (x : Hb_util.Telemetry.histogram_snapshot) ->
               x.Hb_util.Telemetry.h_name = "test.histo_basic")
            s.Hb_util.Telemetry.histograms
        with
        | Some x -> x
        | None -> Alcotest.fail "histogram missing from snapshot"
      in
      (* le is inclusive: 1.0 lands in the first bucket, 2.0 in the
         second; 100.0 overflows into the implicit +Inf slot. *)
      Alcotest.(check (array int)) "bucket counts" [| 2; 2; 1; 1 |]
        histo.Hb_util.Telemetry.bucket_counts;
      Alcotest.(check int) "total" 6 histo.Hb_util.Telemetry.total;
      check_float "sum" 109.0 histo.Hb_util.Telemetry.sum;
      (* Re-registration with different buckets keeps the original. *)
      let h' = Hb_util.Telemetry.histogram ~buckets:[| 9.0 |] "test.histo_basic" in
      Hb_util.Telemetry.observe h' 0.1;
      let s' = Hb_util.Telemetry.snapshot () in
      let histo' =
        List.find
          (fun (x : Hb_util.Telemetry.histogram_snapshot) ->
             x.Hb_util.Telemetry.h_name = "test.histo_basic")
          s'.Hb_util.Telemetry.histograms
      in
      Alcotest.(check int) "interned, buckets kept" 4
        (Array.length histo'.Hb_util.Telemetry.bucket_counts));
  (* Bad bucket arrays are rejected at registration. *)
  List.iter
    (fun buckets ->
       match Hb_util.Telemetry.histogram ~buckets "test.histo_invalid" with
       | _ -> Alcotest.fail "expected Invalid_argument"
       | exception Invalid_argument _ -> ())
    [ [||]; [| 2.0; 1.0 |]; [| 1.0; 1.0 |]; [| 0.0; Float.infinity |] ]

let test_histogram_parallel_merge () =
  (* Same observations, any pool split: bucket counts are exact integer
     sums and the float sum merges in fixed domain order, so the whole
     histogram snapshot is deterministic. *)
  let h =
    Hb_util.Telemetry.histogram
      ~buckets:[| 10.0; 100.0; 500.0 |] "test.histo_parallel"
  in
  let runs =
    List.map
      (fun jobs ->
         with_telemetry (fun () ->
             let pool = Hb_util.Pool.create ~jobs () in
             Hb_util.Pool.run ~label:"test.histo_job" pool ~count:1000
               (fun i -> Hb_util.Telemetry.observe h (float_of_int i));
             let s = Hb_util.Telemetry.snapshot () in
             Hb_util.Pool.shutdown pool;
             List.find
               (fun (x : Hb_util.Telemetry.histogram_snapshot) ->
                  x.Hb_util.Telemetry.h_name = "test.histo_parallel")
               s.Hb_util.Telemetry.histograms))
      [ 1; 2; 4 ]
  in
  match runs with
  | first :: rest ->
    Alcotest.(check (array int)) "sequential buckets" [| 11; 90; 400; 499 |]
      first.Hb_util.Telemetry.bucket_counts;
    Alcotest.(check int) "sequential total" 1000 first.Hb_util.Telemetry.total;
    check_float "sequential sum" (float_of_int (1000 * 999 / 2))
      first.Hb_util.Telemetry.sum;
    List.iteri
      (fun i run ->
         Alcotest.(check (array int))
           (Printf.sprintf "run %d buckets match sequential" (i + 1))
           first.Hb_util.Telemetry.bucket_counts
           run.Hb_util.Telemetry.bucket_counts;
         check_float
           (Printf.sprintf "run %d sum matches sequential" (i + 1))
           first.Hb_util.Telemetry.sum run.Hb_util.Telemetry.sum)
      rest
  | [] -> Alcotest.fail "no runs"

let test_prometheus_exposition () =
  with_telemetry (fun () ->
      let c = Hb_util.Telemetry.counter "promtest.requests" in
      let g = Hb_util.Telemetry.gauge "promtest.dirty-set" in
      let h =
        Hb_util.Telemetry.histogram ~buckets:[| 1.0; 2.0; 5.0 |]
          "promtest.latency_seconds"
      in
      Hb_util.Telemetry.add c 7;
      Hb_util.Telemetry.set_gauge g 3.5;
      List.iter (Hb_util.Telemetry.observe h) [ 0.5; 1.5; 1.5; 3.0; 9.0 ];
      let text = Hb_util.Telemetry.prometheus (Hb_util.Telemetry.snapshot ()) in
      (* Golden lines for this test's uniquely-prefixed metrics (the
         global registry contributes other lines around them). *)
      List.iter
        (fun line ->
           Alcotest.(check bool) ("exposition has: " ^ line) true
             (string_contains text (line ^ "\n")))
        [ "# TYPE hb_promtest_requests_total counter";
          "hb_promtest_requests_total 7";
          "# TYPE hb_promtest_dirty_set gauge";
          "hb_promtest_dirty_set 3.5";
          "# TYPE hb_promtest_latency_seconds histogram";
          "hb_promtest_latency_seconds_bucket{le=\"1\"} 1";
          "hb_promtest_latency_seconds_bucket{le=\"2\"} 3";
          "hb_promtest_latency_seconds_bucket{le=\"5\"} 4";
          "hb_promtest_latency_seconds_bucket{le=\"+Inf\"} 5";
          "hb_promtest_latency_seconds_sum 15.5";
          "hb_promtest_latency_seconds_count 5" ];
      (* Bucket monotonicity: every histogram's cumulative counts must be
         non-decreasing and end at its _count. *)
      List.iter
        (fun (hs : Hb_util.Telemetry.histogram_snapshot) ->
           let cumulative = ref 0 in
           Array.iter
             (fun n ->
                Alcotest.(check bool) "bucket count non-negative" true (n >= 0);
                cumulative := !cumulative + n)
             hs.Hb_util.Telemetry.bucket_counts;
           Alcotest.(check int)
             (hs.Hb_util.Telemetry.h_name ^ " count consistent")
             hs.Hb_util.Telemetry.total !cumulative)
        (Hb_util.Telemetry.snapshot ()).Hb_util.Telemetry.histograms)

let test_telemetry_tags () =
  with_telemetry (fun () ->
      Hb_util.Telemetry.span "test.untagged" (fun () -> ());
      Hb_util.Telemetry.with_tag "req-42" (fun () ->
          Alcotest.(check (option string)) "tag visible inside" (Some "req-42")
            (Hb_util.Telemetry.current_tag ());
          Hb_util.Telemetry.span "test.tagged_outer" (fun () ->
              Hb_util.Telemetry.span "test.tagged_inner" (fun () -> ())));
      Alcotest.(check (option string)) "tag restored" None
        (Hb_util.Telemetry.current_tag ());
      let s = Hb_util.Telemetry.snapshot () in
      let tag_of name =
        (List.find
           (fun sp -> sp.Hb_util.Telemetry.span_name = name)
           s.Hb_util.Telemetry.spans)
          .Hb_util.Telemetry.tag
      in
      Alcotest.(check (option string)) "outer tagged" (Some "req-42")
        (tag_of "test.tagged_outer");
      Alcotest.(check (option string)) "nested span inherits" (Some "req-42")
        (tag_of "test.tagged_inner");
      Alcotest.(check (option string)) "untagged span clean" None
        (tag_of "test.untagged");
      let trace = Hb_util.Telemetry.trace_json s in
      Alcotest.(check bool) "trace carries request id" true
        (string_contains trace "\"request_id\":\"req-42\""))

(* ------------------------------------------------------------------ *)
(* Log                                                                *)
(* ------------------------------------------------------------------ *)

let with_log level f =
  Hb_util.Log.reset ();
  Hb_util.Log.set_level level;
  let events = ref [] in
  Hb_util.Log.set_sink (fun e -> events := e :: !events);
  Fun.protect
    ~finally:(fun () ->
        Hb_util.Log.set_level Hb_util.Log.Off;
        Hb_util.Log.set_sink_default ();
        Hb_util.Log.reset ())
    (fun () -> f events)

let test_log_levels () =
  Alcotest.(check bool) "off emits nothing" false
    (Hb_util.Log.level () <> Hb_util.Log.Off || Hb_util.Log.on Hb_util.Log.Error);
  List.iter
    (fun (name, expected) ->
       Alcotest.(check bool) ("parse " ^ name) true
         (Hb_util.Log.level_of_string name = expected))
    [ ("off", Some Hb_util.Log.Off); ("error", Some Hb_util.Log.Error);
      ("WARN", Some Hb_util.Log.Warn); ("warning", Some Hb_util.Log.Warn);
      ("info", Some Hb_util.Log.Info); ("debug", Some Hb_util.Log.Debug);
      ("verbose", None) ];
  with_log Hb_util.Log.Info (fun events ->
      Alcotest.(check bool) "info on" true (Hb_util.Log.on Hb_util.Log.Info);
      Alcotest.(check bool) "debug gated" false
        (Hb_util.Log.on Hb_util.Log.Debug);
      Hb_util.Log.debug "test.dropped" [];
      Hb_util.Log.info "test.kept" [ ("n", Hb_util.Log.Int 1) ];
      Hb_util.Log.error "test.kept" [];
      Alcotest.(check int) "only enabled events reach the sink" 2
        (List.length !events);
      Alcotest.(check int) "per-site count" 2 (Hb_util.Log.emitted "test.kept");
      Alcotest.(check int) "dropped not counted" 0
        (Hb_util.Log.emitted "test.dropped"))

let test_log_render () =
  with_log Hb_util.Log.Debug (fun events ->
      Hb_util.Log.info "test.render"
        [ ("flag", Hb_util.Log.Bool true);
          ("n", Hb_util.Log.Int 42);
          ("x", Hb_util.Log.Float 1.5);
          ("who", Hb_util.Log.String "a \"quoted\" name") ];
      let e = List.hd !events in
      let json = Hb_util.Log.render_json e in
      List.iter
        (fun needle ->
           Alcotest.(check bool) ("json has " ^ needle) true
             (string_contains json needle))
        [ "\"site\":\"test.render\""; "\"level\":\"info\"";
          "\"flag\":true"; "\"n\":42"; "\"x\":1.5";
          "\"who\":\"a \\\"quoted\\\" name\"" ];
      (match Hb_util.Json.parse json with
       | exception Hb_util.Json.Parse_error _ ->
         Alcotest.fail "render_json must be parseable JSON"
       | _ -> ());
      let human = Hb_util.Log.render_human e in
      Alcotest.(check bool) "human has site" true
        (string_contains human "test.render");
      Alcotest.(check bool) "human has field" true
        (string_contains human "n=42"))

let test_log_ring () =
  with_log Hb_util.Log.Debug (fun _ ->
      for i = 1 to 300 do
        Hb_util.Log.info "test.ring" [ ("i", Hb_util.Log.Int i) ]
      done;
      let recent = Hb_util.Log.recent () in
      Alcotest.(check int) "ring bounded at 256" 256 (List.length recent);
      let value_of e =
        match e.Hb_util.Log.fields with
        | [ ("i", Hb_util.Log.Int i) ] -> i
        | _ -> Alcotest.fail "unexpected fields"
      in
      Alcotest.(check int) "oldest surviving event" 45
        (value_of (List.hd recent));
      Alcotest.(check int) "newest event last" 300
        (value_of (List.nth recent 255));
      Alcotest.(check int) "site count unbounded" 300
        (Hb_util.Log.emitted "test.ring");
      (* A raising sink must not take the caller down. *)
      Hb_util.Log.set_sink (fun _ -> failwith "sink boom");
      Hb_util.Log.info "test.ring" [])

(* ------------------------------------------------------------------ *)
(* Quantiles, rolling windows, runtime sampler                        *)
(* ------------------------------------------------------------------ *)

let test_quantile_reference () =
  (* Hand-checked distribution: bounds 1/2/5, per-bucket counts
     2/2/1/1 (last is +Inf), total 6. *)
  let bounds = [| 1.0; 2.0; 5.0 |] in
  let counts = [| 2; 2; 1; 1 |] in
  let q v =
    match Hb_util.Telemetry.quantile ~bounds ~counts v with
    | Some x -> x
    | None -> Alcotest.fail "quantile returned None on populated counts"
  in
  (* target 3.0 lands in (1,2]: 1 + (3-2)/2 = 1.5 *)
  check_float "median interpolates" 1.5 (q 0.5);
  (* target 0 resolves at the lower edge of the first occupied bucket *)
  check_float "q=0 lower edge" 0.0 (q 0.0);
  (* target 5.0 is exactly the cumulative top of (2,5] *)
  check_float "q=5/6 bucket top" 5.0 (q (5.0 /. 6.0));
  (* the +Inf bucket answers with the last finite bound, a floor *)
  check_float "q=1 clamps to last bound" 5.0 (q 1.0);
  check_float "out-of-range q clamps" 5.0 (q 2.0);
  (match Hb_util.Telemetry.quantile ~bounds ~counts:[| 0; 0; 0; 0 |] 0.5 with
   | None -> ()
   | Some _ -> Alcotest.fail "empty distribution must be None");
  (match Hb_util.Telemetry.quantile ~bounds:[||] ~counts:[| 3 |] 0.5 with
   | None -> ()
   | Some _ -> Alcotest.fail "no finite bounds must be None")

let test_window_expiry () =
  with_telemetry (fun () ->
      let h =
        Hb_util.Telemetry.histogram ~buckets:[| 1.0; 50.0; 200.0 |]
          "test.window_expiry"
      in
      let w = Hb_util.Telemetry.window ~slots:2 ~slot_seconds:0.01 h in
      (* Ten slow observations land after the creation baseline. *)
      for _ = 1 to 10 do
        Hb_util.Telemetry.observe h 100.0
      done;
      Alcotest.(check int) "slow obs visible" 10
        (Hb_util.Telemetry.window_observations w);
      (match Hb_util.Telemetry.window_quantile w 0.99 with
       | Some p99 ->
         if p99 < 50.0 then
           Alcotest.failf "p99 %.3f should reflect the 100.0 batch" p99
       | None -> Alcotest.fail "windowed p99 missing");
      (* Two forced boundaries on a 2-slot ring: the oldest retained
         capture now postdates the slow batch, which must fall out. *)
      Hb_util.Telemetry.window_force_tick w;
      Hb_util.Telemetry.window_force_tick w;
      for _ = 1 to 10 do
        Hb_util.Telemetry.observe h 0.5
      done;
      Alcotest.(check int) "only fresh obs in window" 10
        (Hb_util.Telemetry.window_observations w);
      (match Hb_util.Telemetry.window_quantile w 0.99 with
       | Some p99 ->
         if p99 > 1.0 then
           Alcotest.failf "p99 %.3f still sees the expired 100.0 batch" p99
       | None -> Alcotest.fail "windowed p99 missing after expiry"));
  (* Degenerate geometries are rejected up front. *)
  List.iter
    (fun mk ->
       match mk () with
       | _ -> Alcotest.fail "expected Invalid_argument"
       | exception Invalid_argument _ -> ())
    [ (fun () ->
        Hb_util.Telemetry.window ~slots:1
          (Hb_util.Telemetry.histogram "test.window_bad1"));
      (fun () ->
        Hb_util.Telemetry.window ~slot_seconds:0.0
          (Hb_util.Telemetry.histogram "test.window_bad2")) ]

let test_runtime_sampler () =
  with_telemetry (fun () ->
      Hb_util.Telemetry.sample_runtime ();
      let gauge name =
        let s = Hb_util.Telemetry.snapshot () in
        match List.assoc_opt name s.Hb_util.Telemetry.gauges with
        | Some v -> v
        | None -> Alcotest.fail ("runtime gauge not set: " ^ name)
      in
      let minor0 = gauge "runtime.gc_minor_words" in
      if gauge "runtime.gc_heap_words" <= 0.0 then
        Alcotest.fail "heap words must be positive";
      if gauge "runtime.domains" < 1.0 then
        Alcotest.fail "at least the running domain";
      if gauge "runtime.rss_bytes" <= 0.0 then
        Alcotest.fail "rss must be readable on this platform";
      (* Allocate, resample: the minor-words odometer only goes up.
         (Gauges max-merge, so monotonicity also survives the merge.) *)
      let junk = ref [] in
      for i = 1 to 10_000 do
        junk := string_of_int i :: !junk
      done;
      ignore (List.length !junk);
      Hb_util.Telemetry.sample_runtime ();
      let minor1 = gauge "runtime.gc_minor_words" in
      if minor1 < minor0 then
        Alcotest.failf "minor words went backwards: %.0f -> %.0f" minor0
          minor1);
  (* Disabled registry: sampling is a no-op, not a crash. *)
  Hb_util.Telemetry.sample_runtime ()

(* ------------------------------------------------------------------ *)
(* Json                                                               *)
(* ------------------------------------------------------------------ *)

(* The printer as it was before it appended into its buffer directly:
   [Printf.sprintf] numbers and a per-call escaper. Kept verbatim as the
   reference [Json.to_string] must match byte for byte. *)
module Printf_json = struct
  open Hb_util.Json

  let escape s =
    let buffer = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
         match c with
         | '"' -> Buffer.add_string buffer "\\\""
         | '\\' -> Buffer.add_string buffer "\\\\"
         | '\n' -> Buffer.add_string buffer "\\n"
         | '\t' -> Buffer.add_string buffer "\\t"
         | '\r' -> Buffer.add_string buffer "\\r"
         | c when Char.code c < 0x20 ->
           Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
         | c -> Buffer.add_char buffer c)
      s;
    Buffer.contents buffer

  let number f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f <= 9.007199254740992e15 then
      Printf.sprintf "%.0f" f
    else
      (* Shortest representation that still round-trips a double. *)
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let to_string value =
    let buffer = Buffer.create 256 in
    let rec emit = function
      | Null -> Buffer.add_string buffer "null"
      | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
      | Number f -> Buffer.add_string buffer (number f)
      | String s ->
        Buffer.add_char buffer '"';
        Buffer.add_string buffer (escape s);
        Buffer.add_char buffer '"'
      | List items ->
        Buffer.add_char buffer '[';
        List.iteri
          (fun i item ->
             if i > 0 then Buffer.add_char buffer ',';
             emit item)
          items;
        Buffer.add_char buffer ']'
      | Obj members ->
        Buffer.add_char buffer '{';
        List.iteri
          (fun i (key, item) ->
             if i > 0 then Buffer.add_char buffer ',';
             Buffer.add_char buffer '"';
             Buffer.add_string buffer (escape key);
             Buffer.add_string buffer "\":";
             emit item)
          members;
        Buffer.add_char buffer '}'
    in
    emit value;
    Buffer.contents buffer
end

(* Doubles the printer treats differently: both zeros, subnormals, the
   integers on either side of 2^53, values that need 17 digits, and the
   non-finite ones. *)
let special_floats =
  [ 0.0; -0.0; 5e-324; -5e-324; 2.2250738585072009e-308; Float.min_float;
    Float.max_float; -.Float.max_float; Float.epsilon; 0.1; -0.125; 1e21;
    9.007199254740991e15; 9.007199254740992e15; 9.007199254740993e15;
    -9.007199254740992e15; 1.8014398509481984e16; 4503599627370495.5;
    Float.pred 1.0; Float.succ 1.0; 1.0 /. 3.0; Float.infinity;
    Float.neg_infinity; Float.nan ]

let random_float state =
  match Random.State.int state 4 with
  | 0 -> Int64.float_of_bits (Random.State.bits64 state)
  | 1 ->
    (* Subnormal: exponent bits all zero. *)
    Int64.float_of_bits
      (Int64.logand (Random.State.bits64 state) 0x800F_FFFF_FFFF_FFFFL)
  | 2 ->
    Float.of_int (Random.State.int state 2001 - 1000)
    +. (if Random.State.bool state then 9.007199254740992e15 else 0.0)
  | _ ->
    List.nth special_floats
      (Random.State.int state (List.length special_floats))

let random_string state =
  String.init (Random.State.int state 12) (fun _ ->
      Char.chr (Random.State.int state 256))

let rec random_json state depth =
  match Random.State.int state (if depth >= 4 then 4 else 6) with
  | 0 -> Hb_util.Json.Null
  | 1 -> Hb_util.Json.Bool (Random.State.bool state)
  | 2 -> Hb_util.Json.Number (random_float state)
  | 3 -> Hb_util.Json.String (random_string state)
  | 4 ->
    Hb_util.Json.List
      (List.init (Random.State.int state 5) (fun _ ->
           random_json state (depth + 1)))
  | _ ->
    Hb_util.Json.Obj
      (List.init (Random.State.int state 5) (fun _ ->
           (random_string state, random_json state (depth + 1))))

let test_json_printer_reference () =
  let check value =
    Alcotest.(check string) "to_string" (Printf_json.to_string value)
      (Hb_util.Json.to_string value)
  in
  List.iter (fun f -> check (Hb_util.Json.Number f)) special_floats;
  check (Hb_util.Json.String (String.init 256 Char.chr));
  check (Hb_util.Json.Obj [ (String.init 256 Char.chr, Hb_util.Json.Null) ]);
  let state = Random.State.make [| 25 |] in
  for _ = 1 to 3000 do
    check (random_json state 0)
  done

let nested depth ~opening ~closing ~inner =
  String.concat ""
    [ String.concat "" (List.init depth (fun _ -> opening));
      inner;
      String.make depth closing ]

let test_json_depth_cap () =
  let parses name text =
    match Hb_util.Json.parse text with
    | _ -> ()
    | exception Hb_util.Json.Parse_error { position; message } ->
      Alcotest.failf "%s: failed at byte %d: %s" name position message
  in
  let fails_at name position text =
    match Hb_util.Json.parse text with
    | _ -> Alcotest.failf "%s: parsed" name
    | exception Hb_util.Json.Parse_error { position = at; _ } ->
      Alcotest.(check int) name position at
  in
  parses "512 lists" (nested 512 ~opening:"[" ~closing:']' ~inner:"");
  parses "512 objects"
    (nested 512 ~opening:"{\"a\": " ~closing:'}' ~inner:"1");
  fails_at "513 lists" 512 (nested 513 ~opening:"[" ~closing:']' ~inner:"");
  fails_at "513 objects" (512 * 6)
    (nested 513 ~opening:"{\"a\": " ~closing:'}' ~inner:"1");
  fails_at "unclosed million" 512 (String.make 1_000_000 '[');
  (* The limit counts depth, not brackets: wide documents are fine. *)
  parses "wide"
    ("[" ^ String.concat ","
       (List.init 2000 (fun _ -> nested 500 ~opening:"[" ~closing:']' ~inner:""))
     ^ "]")

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest
      [ prop_modulo_in_range; prop_topo_random_dag ]
  in
  Alcotest.run "hb_util"
    [ ("time",
       [ Alcotest.test_case "comparisons" `Quick test_time_compare;
         Alcotest.test_case "modulo" `Quick test_time_modulo;
         Alcotest.test_case "clamp" `Quick test_time_clamp;
         Alcotest.test_case "min/max match Stdlib" `Quick test_time_min_max ]);
      ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "copy" `Quick test_rng_copy;
         Alcotest.test_case "bounds" `Quick test_rng_bounds;
         Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes ]);
      ("topo",
       [ Alcotest.test_case "chain" `Quick test_topo_chain;
         Alcotest.test_case "diamond" `Quick test_topo_diamond;
         Alcotest.test_case "cycle" `Quick test_topo_cycle;
         Alcotest.test_case "self loop" `Quick test_topo_self_loop;
         Alcotest.test_case "empty" `Quick test_topo_empty ]);
      ("interval",
       [ Alcotest.test_case "basics" `Quick test_interval_basics;
         Alcotest.test_case "point" `Quick test_interval_point;
         Alcotest.test_case "empty" `Quick test_interval_empty ]);
      ("table",
       [ Alcotest.test_case "render" `Quick test_table_render;
         Alcotest.test_case "ragged" `Quick test_table_rejects_ragged;
         Alcotest.test_case "no rows" `Quick test_table_no_rows ]);
      ("extras",
       [ Alcotest.test_case "rng choose" `Quick test_rng_choose;
         Alcotest.test_case "time boundaries" `Quick test_time_boundary_comparisons ]);
      ("telemetry",
       [ Alcotest.test_case "counters" `Quick test_telemetry_counters;
         Alcotest.test_case "gauges" `Quick test_telemetry_gauges;
         Alcotest.test_case "spans" `Quick test_telemetry_spans;
         Alcotest.test_case "parallel merge" `Quick test_telemetry_parallel_merge;
         Alcotest.test_case "trace json" `Quick test_telemetry_trace_json;
         Alcotest.test_case "histograms" `Quick test_histogram_basic;
         Alcotest.test_case "histogram parallel merge" `Quick
           test_histogram_parallel_merge;
         Alcotest.test_case "quantile reference" `Quick test_quantile_reference;
         Alcotest.test_case "window expiry" `Quick test_window_expiry;
         Alcotest.test_case "runtime sampler" `Quick test_runtime_sampler;
         Alcotest.test_case "prometheus exposition" `Quick
           test_prometheus_exposition;
         Alcotest.test_case "request tags" `Quick test_telemetry_tags ]);
      ("log",
       [ Alcotest.test_case "levels" `Quick test_log_levels;
         Alcotest.test_case "render" `Quick test_log_render;
         Alcotest.test_case "ring and sites" `Quick test_log_ring ]);
      ("json",
       [ Alcotest.test_case "to_string = printf printer" `Quick
           test_json_printer_reference;
         Alcotest.test_case "depth cap" `Quick test_json_depth_cap ]);
      ("properties", qsuite);
    ]
