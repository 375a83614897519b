(* Per-domain shards merged on read. Metric registration happens at
   module-initialisation time under [registry_lock]; the hot paths
   ([add], [set_gauge], span bodies) touch only the calling domain's
   shard, reached through [Domain.DLS], so enabled-mode writes never
   contend. The [enabled] flag is the only shared state the disabled
   path reads. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

type counter = int
type gauge = int

(* Registration and the shard list share one lock: both are cold. *)
let registry_lock = Mutex.create ()
let counter_names : string array ref = ref [||]
let counter_count = ref 0
let gauge_names : string array ref = ref [||]
let gauge_count = ref 0

type histogram = int

(* Histogram upper bounds are fixed at registration and shared by every
   shard; [histogram_bounds] grows in lock-step with [histogram_names]. *)
let histogram_names : string array ref = ref [||]
let histogram_count = ref 0
let histogram_bounds : float array array ref = ref [||]

let latency_buckets =
  [| 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2; 2.5e-2; 5e-2; 0.1; 0.25;
     0.5; 1.0; 2.5; 5.0; 10.0 |]

let count_buckets =
  [| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0; 2000.0;
     5000.0; 10_000.0; 20_000.0; 50_000.0; 100_000.0 |]

type span_record = {
  span_name : string;
  domain : int;
  start_s : float;
  wall_s : float;
  cpu_s : float;
  tag : string option;
}

type shard = {
  shard_domain : int;
  mutable counts : int array;
  mutable gauge_values : float array; (* nan = never set on this domain *)
  mutable spans : span_record list;   (* newest first *)
  mutable histo_counts : int array array; (* per histogram, bounds + 1 slots *)
  mutable histo_sums : float array;
}

let shards : shard list ref = ref []

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let shard_key =
  Domain.DLS.new_key (fun () ->
      let shard =
        {
          shard_domain = (Domain.self () :> int);
          counts = Array.make (max 8 !counter_count) 0;
          gauge_values = Array.make (max 8 !gauge_count) nan;
          spans = [];
          histo_counts = [||];
          histo_sums = [||];
        }
      in
      locked (fun () -> shards := shard :: !shards);
      shard)

let my_shard () = Domain.DLS.get shard_key

let intern names count name =
  locked (fun () ->
      let rec find i =
        if i >= !count then None
        else if String.equal !names.(i) name then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some id -> id
      | None ->
          let id = !count in
          if id >= Array.length !names then begin
            let grown = Array.make (max 8 (2 * id)) "" in
            Array.blit !names 0 grown 0 id;
            names := grown
          end;
          !names.(id) <- name;
          incr count;
          id)

let counter name = intern counter_names counter_count name
let gauge name = intern gauge_names gauge_count name

let histogram ?(buckets = latency_buckets) name =
  let ok = ref (Array.length buckets > 0) in
  Array.iteri
    (fun i b ->
      if not (Float.is_finite b) then ok := false;
      if i > 0 && not (buckets.(i - 1) < b) then ok := false)
    buckets;
  if not !ok then
    invalid_arg
      (Printf.sprintf
         "Telemetry.histogram %s: buckets must be finite and strictly \
          increasing" name);
  locked (fun () ->
      let rec find i =
        if i >= !histogram_count then None
        else if String.equal !histogram_names.(i) name then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some id -> id
      | None ->
          let id = !histogram_count in
          if id >= Array.length !histogram_names then begin
            let grown_names = Array.make (max 8 (2 * (id + 1))) "" in
            Array.blit !histogram_names 0 grown_names 0 id;
            histogram_names := grown_names;
            let grown_bounds = Array.make (max 8 (2 * (id + 1))) [||] in
            Array.blit !histogram_bounds 0 grown_bounds 0 id;
            histogram_bounds := grown_bounds
          end;
          !histogram_names.(id) <- name;
          !histogram_bounds.(id) <- Array.copy buckets;
          incr histogram_count;
          id)

let add c n =
  if Atomic.get enabled_flag then begin
    let shard = my_shard () in
    if c >= Array.length shard.counts then begin
      let grown = Array.make (max 8 (2 * (c + 1))) 0 in
      Array.blit shard.counts 0 grown 0 (Array.length shard.counts);
      shard.counts <- grown
    end;
    shard.counts.(c) <- shard.counts.(c) + n
  end

let incr c = add c 1

let set_gauge g v =
  if Atomic.get enabled_flag then begin
    let shard = my_shard () in
    if g >= Array.length shard.gauge_values then begin
      let grown = Array.make (max 8 (2 * (g + 1))) nan in
      Array.blit shard.gauge_values 0 grown 0 (Array.length shard.gauge_values);
      shard.gauge_values <- grown
    end;
    shard.gauge_values.(g) <- v
  end

let observe h v =
  if Atomic.get enabled_flag then begin
    let shard = my_shard () in
    if h >= Array.length shard.histo_counts then begin
      let n = !histogram_count in
      let grown_counts = Array.make (max 8 n) [||] in
      Array.blit shard.histo_counts 0 grown_counts 0
        (Array.length shard.histo_counts);
      for i = Array.length shard.histo_counts to n - 1 do
        grown_counts.(i) <- Array.make (Array.length !histogram_bounds.(i) + 1) 0
      done;
      shard.histo_counts <- grown_counts;
      let grown_sums = Array.make (max 8 n) 0.0 in
      Array.blit shard.histo_sums 0 grown_sums 0
        (Array.length shard.histo_sums);
      shard.histo_sums <- grown_sums
    end;
    let bounds = !histogram_bounds.(h) in
    (* Slots past the histogram count at grow time are left empty; fill
       them the first time a later-registered histogram is observed. *)
    if Array.length shard.histo_counts.(h) = 0 then
      shard.histo_counts.(h) <- Array.make (Array.length bounds + 1) 0;
    let counts = shard.histo_counts.(h) in
    let n = Array.length bounds in
    let rec bucket i = if i >= n || v <= bounds.(i) then i else bucket (i + 1) in
    counts.(bucket 0) <- counts.(bucket 0) + 1;
    shard.histo_sums.(h) <- shard.histo_sums.(h) +. v
  end

(* Per-domain request tag, inherited by every span the domain records
   while the tag is set (the serve loop tags each request's spans with
   its request id; [trace_json] surfaces it in the span args). *)
let tag_key : string option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_tag tag f =
  let previous = Domain.DLS.get tag_key in
  Domain.DLS.set tag_key (Some tag);
  Fun.protect ~finally:(fun () -> Domain.DLS.set tag_key previous) f

let current_tag () = Domain.DLS.get tag_key

let read_counter c =
  locked (fun () ->
      List.fold_left
        (fun acc shard ->
          if c < Array.length shard.counts then acc + shard.counts.(c) else acc)
        0 !shards)

let read_counter_local c =
  let shard = my_shard () in
  if c < Array.length shard.counts then shard.counts.(c) else 0

let record_span shard span_name start_s cpu0 =
  let wall_s = Unix.gettimeofday () -. start_s in
  let cpu_s = Sys.time () -. cpu0 in
  shard.spans <-
    { span_name; domain = shard.shard_domain; start_s; wall_s; cpu_s;
      tag = Domain.DLS.get tag_key }
    :: shard.spans

let span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let shard = my_shard () in
    let start_s = Unix.gettimeofday () in
    let cpu0 = Sys.time () in
    match f () with
    | result ->
        record_span shard name start_s cpu0;
        result
    | exception e ->
        record_span shard name start_s cpu0;
        raise e
  end

let reset () =
  locked (fun () ->
      List.iter
        (fun shard ->
          Array.fill shard.counts 0 (Array.length shard.counts) 0;
          Array.fill shard.gauge_values 0 (Array.length shard.gauge_values) nan;
          Array.iter
            (fun counts -> Array.fill counts 0 (Array.length counts) 0)
            shard.histo_counts;
          Array.fill shard.histo_sums 0 (Array.length shard.histo_sums) 0.0;
          shard.spans <- [])
        !shards)

type histogram_snapshot = {
  h_name : string;
  upper_bounds : float array;  (* finite bounds; an implicit +Inf follows *)
  bucket_counts : int array;   (* length = Array.length upper_bounds + 1 *)
  sum : float;
  total : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : histogram_snapshot list;
  spans : span_record list;
}

(* Shards in domain-id order: float sums are merged in this fixed order
   so a result never depends on shard registration order. Callers hold
   the registry lock. *)
let ordered_shards () =
  List.sort (fun a b -> compare a.shard_domain b.shard_domain) !shards

(* Histogram [h] summed over [shards]. Callers hold the registry lock. *)
let merge_histogram shards h =
  let upper_bounds = Array.copy !histogram_bounds.(h) in
  let bucket_counts = Array.make (Array.length upper_bounds + 1) 0 in
  let sum = ref 0.0 in
  List.iter
    (fun shard ->
      if h < Array.length shard.histo_counts then begin
        let sc = shard.histo_counts.(h) in
        for b = 0 to Array.length bucket_counts - 1 do
          if b < Array.length sc then
            bucket_counts.(b) <- bucket_counts.(b) + sc.(b)
        done;
        sum := !sum +. shard.histo_sums.(h)
      end)
    shards;
  let total = Array.fold_left ( + ) 0 bucket_counts in
  { h_name = !histogram_names.(h); upper_bounds; bucket_counts;
    sum = !sum; total }

let snapshot () =
  locked (fun () ->
      let n_counters = !counter_count
      and n_gauges = !gauge_count
      and n_histograms = !histogram_count in
      let counts = Array.make n_counters 0 in
      let gauge_values = Array.make n_gauges nan in
      let spans = ref [] in
      let ordered_shards = ordered_shards () in
      List.iter
        (fun shard ->
          for c = 0 to min n_counters (Array.length shard.counts) - 1 do
            counts.(c) <- counts.(c) + shard.counts.(c)
          done;
          for g = 0 to min n_gauges (Array.length shard.gauge_values) - 1 do
            let v = shard.gauge_values.(g) in
            if not (Float.is_nan v) then
              gauge_values.(g) <-
                (if Float.is_nan gauge_values.(g) then v
                 else Float.max gauge_values.(g) v)
          done;
          spans := List.rev_append shard.spans !spans)
        ordered_shards;
      let histograms =
        List.init n_histograms (merge_histogram ordered_shards)
        |> List.sort (fun a b -> String.compare a.h_name b.h_name)
      in
      let counters =
        List.init n_counters (fun c -> (!counter_names.(c), counts.(c)))
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let gauges =
        List.init n_gauges (fun g -> (!gauge_names.(g), gauge_values.(g)))
        |> List.filter (fun (_, v) -> not (Float.is_nan v))
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let spans =
        List.sort (fun a b -> Float.compare a.start_s b.start_s) !spans
      in
      { counters; gauges; histograms; spans })

(* Merge one histogram across the shards without building the whole
   snapshot — the window ring captures on every slot boundary and the
   runtime sampler runs on every scrape, so this path stays cheap. *)
let read_histogram h =
  locked (fun () ->
      if h >= !histogram_count then
        invalid_arg "Telemetry.read_histogram: unregistered histogram";
      merge_histogram (ordered_shards ()) h)

(* Quantile by linear interpolation inside the bucket the target
   observation falls in. The +Inf bucket has no upper edge; it reports
   the last finite bound — a floor, honest enough for latency gating. *)
let quantile ~bounds ~counts q =
  let n = Array.length counts in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 || Array.length bounds = 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int total in
    let last_bound = bounds.(Array.length bounds - 1) in
    let rec scan i acc =
      if i >= n then Some last_bound
      else begin
        let acc' = acc + counts.(i) in
        if counts.(i) > 0 && float_of_int acc' >= target then
          if i >= Array.length bounds then Some last_bound
          else begin
            let lower = if i = 0 then 0.0 else bounds.(i - 1) in
            let upper = bounds.(i) in
            Some
              (lower
               +. ((upper -. lower)
                   *. ((target -. float_of_int acc) /. float_of_int counts.(i))))
          end
        else scan (i + 1) acc'
      end
    in
    scan 0 0
  end

(* --- rolling windows -------------------------------------------------- *)

(* Cumulative captures at slot boundaries; a windowed statistic is the
   delta between a fresh capture and the oldest retained boundary, so
   the window spans at most [slots * slot_seconds] of history (exactly
   how far back depends on when ticks actually arrived — scrapes drive
   them). *)
type window_slot = {
  ws_ts : float;
  ws_snap : histogram_snapshot;
  ws_num : int;  (* ratio numerator counter at the boundary *)
  ws_den : int;
}

type window = {
  w_hist : histogram;
  w_ratio : (counter * counter) option;
  w_slots : int;
  w_slot_seconds : float;
  w_mutex : Mutex.t;
  w_ring : window_slot option array;
  mutable w_next : int;       (* boundaries captured so far *)
  mutable w_last_tick : float;
}

let window_capture w =
  let snap = read_histogram w.w_hist in
  let num, den =
    match w.w_ratio with
    | Some (num, den) -> (read_counter num, read_counter den)
    | None -> (0, 0)
  in
  { ws_ts = Unix.gettimeofday (); ws_snap = snap; ws_num = num; ws_den = den }

let window_force_tick w =
  let slot = window_capture w in
  Mutex.lock w.w_mutex;
  w.w_ring.(w.w_next mod w.w_slots) <- Some slot;
  w.w_next <- w.w_next + 1;
  w.w_last_tick <- slot.ws_ts;
  Mutex.unlock w.w_mutex

let window ?(slots = 60) ?(slot_seconds = 1.0) ?ratio hist =
  if slots < 2 then invalid_arg "Telemetry.window: slots must be >= 2";
  if not (slot_seconds > 0.0) then
    invalid_arg "Telemetry.window: slot_seconds must be > 0";
  let w =
    { w_hist = hist;
      w_ratio = ratio;
      w_slots = slots;
      w_slot_seconds = slot_seconds;
      w_mutex = Mutex.create ();
      w_ring = Array.make slots None;
      w_next = 0;
      w_last_tick = neg_infinity;
    }
  in
  window_force_tick w;  (* the baseline boundary *)
  w

let window_tick w =
  if Unix.gettimeofday () -. w.w_last_tick >= w.w_slot_seconds then
    window_force_tick w

(* The fresh capture minus the oldest retained boundary. Deltas are
   clamped at zero: a [reset] between boundaries would otherwise turn
   the window negative. *)
let window_delta w =
  let current = window_capture w in
  Mutex.lock w.w_mutex;
  let oldest =
    if w.w_next = 0 then None
    else w.w_ring.(Stdlib.max 0 (w.w_next - w.w_slots) mod w.w_slots)
  in
  Mutex.unlock w.w_mutex;
  match oldest with
  | None -> None
  | Some oldest ->
    let counts =
      Array.mapi
        (fun i n -> Stdlib.max 0 (n - oldest.ws_snap.bucket_counts.(i)))
        current.ws_snap.bucket_counts
    in
    Some
      ( current.ws_snap.upper_bounds,
        counts,
        current.ws_ts -. oldest.ws_ts,
        Stdlib.max 0 (current.ws_num - oldest.ws_num),
        Stdlib.max 0 (current.ws_den - oldest.ws_den) )

let window_quantile w q =
  match window_delta w with
  | None -> None
  | Some (bounds, counts, _, _, _) -> quantile ~bounds ~counts q

let window_ratio w =
  match window_delta w with
  | None -> None
  | Some (_, _, _, num, den) ->
    if den <= 0 then None else Some (float_of_int num /. float_of_int den)

let window_span w =
  match window_delta w with
  | None -> None
  | Some (_, _, span, _, _) -> Some span

let window_observations w =
  match window_delta w with
  | None -> 0
  | Some (_, counts, _, _, _) -> Array.fold_left ( + ) 0 counts

(* --- OCaml runtime sampler -------------------------------------------- *)

let g_rt_minor_words = gauge "runtime.gc_minor_words"
let g_rt_promoted_words = gauge "runtime.gc_promoted_words"
let g_rt_major_words = gauge "runtime.gc_major_words"
let g_rt_minor_collections = gauge "runtime.gc_minor_collections"
let g_rt_major_collections = gauge "runtime.gc_major_collections"
let g_rt_compactions = gauge "runtime.gc_compactions"
let g_rt_heap_words = gauge "runtime.gc_heap_words"
let g_rt_top_heap_words = gauge "runtime.gc_top_heap_words"
let g_rt_rss_bytes = gauge "runtime.rss_bytes"
let g_rt_rss_peak_bytes = gauge "runtime.rss_peak_bytes"
let g_rt_domains = gauge "runtime.domains"

let sample_runtime () =
  if Atomic.get enabled_flag then begin
    let s = Gc.quick_stat () in
    set_gauge g_rt_minor_words s.Gc.minor_words;
    set_gauge g_rt_promoted_words s.Gc.promoted_words;
    set_gauge g_rt_major_words s.Gc.major_words;
    set_gauge g_rt_minor_collections (float_of_int s.Gc.minor_collections);
    set_gauge g_rt_major_collections (float_of_int s.Gc.major_collections);
    set_gauge g_rt_compactions (float_of_int s.Gc.compactions);
    set_gauge g_rt_heap_words (float_of_int s.Gc.heap_words);
    set_gauge g_rt_top_heap_words (float_of_int s.Gc.top_heap_words);
    (match Rss.current_bytes () with
     | Some bytes -> set_gauge g_rt_rss_bytes (float_of_int bytes)
     | None -> ());
    (match Rss.peak_bytes () with
     | Some bytes -> set_gauge g_rt_rss_peak_bytes (float_of_int bytes)
     | None -> ());
    let registered = locked (fun () -> List.length !shards) in
    set_gauge g_rt_domains (float_of_int registered)
  end

let aggregate_spans snapshot =
  let order = ref [] in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt totals s.span_name with
      | Some (count, wall, cpu) ->
          Hashtbl.replace totals s.span_name
            (count + 1, wall +. s.wall_s, cpu +. s.cpu_s)
      | None ->
          order := s.span_name :: !order;
          Hashtbl.add totals s.span_name (1, s.wall_s, s.cpu_s))
    snapshot.spans;
  List.rev_map
    (fun name ->
      let count, wall, cpu = Hashtbl.find totals name in
      (name, count, wall, cpu))
    !order

(* Prometheus text exposition (version 0.0.4). Metric names get an
   [hb_] prefix and dots sanitised to underscores; counters gain the
   conventional [_total] suffix, histogram buckets are cumulative with
   the required [+Inf] bound. *)
let prometheus snapshot =
  let buf = Buffer.create 2048 in
  let sanitize name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name
  in
  let metric name = "hb_" ^ sanitize name in
  let number v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%g" v
  in
  List.iter
    (fun (name, v) ->
      let m = metric name ^ "_total" in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" m);
      Buffer.add_string buf (Printf.sprintf "%s %d\n" m v))
    snapshot.counters;
  List.iter
    (fun (name, v) ->
      let m = metric name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" m);
      Buffer.add_string buf (Printf.sprintf "%s %s\n" m (number v)))
    snapshot.gauges;
  List.iter
    (fun h ->
      let m = metric h.h_name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" m);
      let cumulative = ref 0 in
      Array.iteri
        (fun i bound ->
          cumulative := !cumulative + h.bucket_counts.(i);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" m (number bound)
               !cumulative))
        h.upper_bounds;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m h.total);
      Buffer.add_string buf (Printf.sprintf "%s_sum %g\n" m h.sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" m h.total))
    snapshot.histograms;
  Buffer.contents buf

(* Chrome trace-event JSON (the object form). Timestamps are microseconds
   relative to the earliest span so traces start at t=0 in the viewer. *)
let trace_json snapshot =
  let buf = Buffer.create 4096 in
  let origin =
    List.fold_left
      (fun acc s -> Float.min acc s.start_s)
      infinity snapshot.spans
  in
  let micros seconds = Printf.sprintf "%.3f" (seconds *. 1e6) in
  let domains =
    List.sort_uniq compare (List.map (fun s -> s.domain) snapshot.spans)
  in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n  "
  in
  List.iter
    (fun d ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
            \"args\":{\"name\":\"domain %d\"}}"
           d d))
    domains;
  List.iter
    (fun s ->
      sep ();
      Buffer.add_string buf "{\"name\":";
      Json.add_quoted buf s.span_name;
      Buffer.add_string buf
        (Printf.sprintf ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s"
           s.domain
           (micros (s.start_s -. origin))
           (micros s.wall_s));
      Buffer.add_string buf (Printf.sprintf ",\"args\":{\"cpu_s\":%.6f" s.cpu_s);
      (match s.tag with
       | Some tag ->
           Buffer.add_string buf ",\"request_id\":";
           Json.add_quoted buf tag
       | None -> ());
      Buffer.add_string buf "}}")
    snapshot.spans;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf
