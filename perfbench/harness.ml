(* Clock, allocation, order statistics and the closed-loop runner that
   every workload is measured with. *)

module Telemetry = Hb_util.Telemetry

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

(* Process-wide bytes allocated so far. [Gc.quick_stat] sums the
   counters of every domain, exited ones included; [Gc.allocated_bytes]
   and [Gc.counters] see only the calling domain, while the engine's pool
   and the serve scheduler allocate on domains of their own. [Gc.stat]
   gives the same sums but walks the whole heap first: about 0.1 s per
   call on a heap of 5 million blocks. *)
let bytes_of (s : Gc.stat) =
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let allocated_bytes () = bytes_of (Gc.quick_stat ())

(* What the GC saw between two [Gc.quick_stat]s. *)
type gc_work = {
  alloc_bytes : float;
  minor_collections : int;
  major_collections : int;
}

let no_gc_work =
  { alloc_bytes = 0.0; minor_collections = 0; major_collections = 0 }

let gc_since (s0 : Gc.stat) =
  let s1 = Gc.quick_stat () in
  { alloc_bytes = bytes_of s1 -. bytes_of s0;
    minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_collections = s1.Gc.major_collections - s0.Gc.major_collections }

let add_gc_work a b =
  { alloc_bytes = a.alloc_bytes +. b.alloc_bytes;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections }

let mb bytes = bytes /. 1e6

(* ------------------------------------------------------------------ *)
(* Order statistics                                                   *)
(* ------------------------------------------------------------------ *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles values ~n] with its default exclusive
   method, so the spreads printed here are the ones the acceptance rule
   in README.md computes. *)
let quantiles ~n values =
  let data = sorted values in
  let len = Array.length data in
  if len = 0 then List.init (n - 1) (fun _ -> nan)
  else if len = 1 then List.init (n - 1) (fun _ -> data.(0))
  else
    let m = len + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = Stdlib.min (len - 1) (Stdlib.max 1 (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((data.(j - 1) *. float_of_int (n - delta))
         +. (data.(j) *. float_of_int delta))
        /. float_of_int n)

let quartiles values =
  match quantiles ~n:4 values with
  | [ q1; _; q3 ] -> (q1, q3)
  | _ -> (nan, nan)

let percentile p values = List.nth (quantiles ~n:100 values) (p - 1)

let fmt v = Printf.sprintf "%.6g" v

(* ------------------------------------------------------------------ *)
(* Closed-loop runner                                                 *)
(* ------------------------------------------------------------------ *)

(* Linux resets a process's peak resident set (VmHWM) when 5 is
   written to its clear_refs, so the peak can be taken over one op. *)
let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc "5")

let peak_rss_mb () =
  match Hb_util.Rss.peak_bytes () with
  | Some bytes -> mb (float_of_int bytes)
  | None -> failwith "peak RSS is not readable on this platform"

type loop = {
  latencies_ms : float list;
  attempted : int;
  failed : int;
  gc : gc_work;  (* process-wide, over the ops *)
  peak_rss_mb : float list;  (* per op of client 0, process-wide *)
}

let completed l = l.attempted - l.failed

let next_op = Atomic.make 0

(* [closed_loop ~clients ~seconds op] runs [clients] callers that each
   issue their next op only when the previous one has returned, until
   [seconds] have passed; with [seconds] ≤ 0, exactly one op each. Each
   client is a domain of its own, so a traced op's spans nest on one
   domain and its tag is not shared with another client. Every op runs
   under a fresh ["op:<n>"] tag inside an ["op"] span — a single atomic
   load each when telemetry is off — and receives the tag, which the
   serve workload forwards as the request id. An op that raises counts
   as failed.

   With one client the heap is compacted before each op, so an op's
   peak RSS and GC work do not depend on the garbage its predecessor
   left, and the GC work is summed over the ops alone: neither the
   latencies nor the collection counts include the compactions.
   Concurrent clients cannot pause for one, and their GC work is the
   whole loop's. The process's peak RSS is taken over each op of
   client 0, while the other clients run on. *)
let closed_loop ~clients ~seconds (op : client:int -> tag:string -> unit) =
  let single = clients = 1 in
  let deadline = now () +. seconds in
  let loop0 = Gc.quick_stat () in
  let ops_gc = ref no_gc_work in
  let run_client client () =
    let latencies = ref [] and attempted = ref 0 and failed = ref 0 in
    let peaks = ref [] and continue = ref true in
    while !continue do
      if single then Gc.compact ();
      if client = 0 then reset_peak_rss ();
      let op0 = Gc.quick_stat () in
      let tag = Printf.sprintf "op:%d" (Atomic.fetch_and_add next_op 1) in
      incr attempted;
      let t0 = now () in
      (match
         Telemetry.with_tag tag (fun () ->
             Telemetry.span "op" (fun () -> op ~client ~tag))
       with
       | () -> latencies := ((now () -. t0) *. 1000.0) :: !latencies
       | exception e ->
         incr failed;
         if !failed <= 3 then
           Printf.eprintf "op failed (client %d): %s\n%!" client
             (Printexc.to_string e));
      if single then ops_gc := add_gc_work !ops_gc (gc_since op0);
      if client = 0 then peaks := peak_rss_mb () :: !peaks;
      continue := now () < deadline
    done;
    (!latencies, !attempted, !failed, !peaks)
  in
  let results =
    if single then [ run_client 0 () ]
    else
      List.init clients (fun c -> Domain.spawn (run_client c))
      |> List.map Domain.join
  in
  { latencies_ms = List.concat_map (fun (l, _, _, _) -> l) results;
    attempted = List.fold_left (fun n (_, a, _, _) -> n + a) 0 results;
    failed = List.fold_left (fun n (_, _, f, _) -> n + f) 0 results;
    gc = (if single then !ops_gc else gc_since loop0);
    peak_rss_mb = List.concat_map (fun (_, _, _, p) -> p) results;
  }

(* ------------------------------------------------------------------ *)
(* Files                                                              *)
(* ------------------------------------------------------------------ *)

(* Everything a run writes goes under this directory of the checkout. *)
let out_dir = "_perfbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let write_file path content =
  mkdir_p (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try output_string oc content with e -> close_out_noerr oc; raise e);
  close_out oc;
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
