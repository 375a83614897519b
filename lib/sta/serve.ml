module Json = Hb_util.Json
module Log = Hb_util.Log
module Telemetry = Hb_util.Telemetry
module Rwlock = Hb_util.Rwlock
module Squeue = Hb_util.Squeue

(* One completed request, as kept in the flight-recorder ring.
   [rs_wall_ms] is the client-observed latency: scheduler queue wait
   ([rs_queue_ms]) plus service time. *)
type summary = {
  rs_ts : float;
  rs_id : string;       (* request id (client-supplied or generated) *)
  rs_method : string;
  rs_outcome : string;  (* "ok" or the error code *)
  rs_wall_ms : float;
  rs_queue_ms : float;
  rs_cpu_ms : float;
}

let summary_capacity = 64

(* One resident design in the session registry. [e_binds] counts clients
   currently bound to the entry; both it and the entry list are guarded
   by the daemon's registry mutex. [e_last_used] is a racy heuristic
   (concurrent readers stamp it without a lock) — eviction only needs
   approximate recency. *)
type entry = {
  e_key : string;
  e_session : Session.t;
  e_lock : Rwlock.t;
  mutable e_last_used : float;
  mutable e_binds : int;
}

(* One connection's server-side state. A connection processes one
   request at a time (strict request-reply order), so the record needs
   no lock of its own: [c_entry] is written under the registry mutex by
   [load]/[release_client] and read by the worker executing the
   client's next request — the scheduler queue's mutex provides the
   happens-before edge. *)
type client = {
  c_id : int;
  mutable c_entry : entry option;
}

let c_requests = Telemetry.counter "serve.requests"
let c_errors = Telemetry.counter "serve.errors"
let c_timeouts = Telemetry.counter "serve.timeouts"
let c_rejected = Telemetry.counter "serve.rejected"
let c_sessions_shared = Telemetry.counter "serve.sessions_shared"
let c_session_evictions = Telemetry.counter "serve.session_evictions"
let g_sessions = Telemetry.gauge "serve.sessions"
let g_queue_depth = Telemetry.gauge "serve.queue_depth"
let g_active_clients = Telemetry.gauge "serve.active_clients"

(* Same interned counters the engine layers bump; before/after deltas
   size the per-request work for the histograms below. *)
let c_clusters_evaluated = Telemetry.counter "slacks.clusters_evaluated"

(* Client-observed request latency: scheduler queue wait + service. *)
let h_request_seconds = Telemetry.histogram "serve.request_seconds"

(* The queue-wait share alone — the saturation signal. Only the
   scheduler path feeds it (the stdin loop has no queue). *)
let h_queue_wait_seconds = Telemetry.histogram "serve.queue_wait_seconds"

let h_clusters =
  Telemetry.histogram ~buckets:Telemetry.count_buckets
    "serve.clusters_evaluated"

let h_paths =
  Telemetry.histogram ~buckets:Telemetry.count_buckets
    "serve.paths_enumerated"

(* --- the SLO tracker -------------------------------------------------- *)

(* Windowed p50/p99 and error rate over [serve.request_seconds] and the
   error/request counter pair, against optional budgets. Burn is the
   windowed value divided by its budget — above 1.0 the objective is
   being missed right now. [tick] refreshes the [slo.*] gauges, so the
   burn status rides every Prometheus exposition for free. *)
module Slo = struct
  type t = {
    s_p99_budget_ms : float option;
    s_error_budget : float option;
    s_window : Telemetry.window;
  }

  type status = {
    window_seconds : float option;
    observations : int;
    p50_ms : float option;
    p99_ms : float option;
    error_rate : float option;
    p99_budget_ms : float option;
    error_budget : float option;
    p99_burn : float option;
    error_burn : float option;
    breached : bool;
  }

  let g_window_seconds = Telemetry.gauge "slo.window_seconds"
  let g_window_observations = Telemetry.gauge "slo.window_observations"
  let g_window_p50 = Telemetry.gauge "slo.window_p50_ms"
  let g_window_p99 = Telemetry.gauge "slo.window_p99_ms"
  let g_window_error_rate = Telemetry.gauge "slo.window_error_rate"
  let g_p99_budget = Telemetry.gauge "slo.p99_budget_ms"
  let g_error_budget = Telemetry.gauge "slo.error_budget"
  let g_p99_burn = Telemetry.gauge "slo.p99_burn"
  let g_error_burn = Telemetry.gauge "slo.error_burn"
  let g_breached = Telemetry.gauge "slo.breached"

  let create ?p99_budget_ms ?error_budget ?(slots = 60) ?(slot_seconds = 1.0)
      () =
    { s_p99_budget_ms = p99_budget_ms;
      s_error_budget = error_budget;
      s_window =
        Telemetry.window ~slots ~slot_seconds ~ratio:(c_errors, c_requests)
          h_request_seconds;
    }

  let status t =
    let ms = Option.map (fun seconds -> seconds *. 1000.0) in
    let p50_ms = ms (Telemetry.window_quantile t.s_window 0.50) in
    let p99_ms = ms (Telemetry.window_quantile t.s_window 0.99) in
    let error_rate = Telemetry.window_ratio t.s_window in
    let burn value budget =
      match value, budget with
      | Some v, Some b when b > 0.0 -> Some (v /. b)
      | _ -> None
    in
    let p99_burn = burn p99_ms t.s_p99_budget_ms in
    let error_burn = burn error_rate t.s_error_budget in
    let over = function Some b -> b > 1.0 | None -> false in
    { window_seconds = Telemetry.window_span t.s_window;
      observations = Telemetry.window_observations t.s_window;
      p50_ms; p99_ms; error_rate;
      p99_budget_ms = t.s_p99_budget_ms;
      error_budget = t.s_error_budget;
      p99_burn; error_burn;
      breached = over p99_burn || over error_burn;
    }

  let tick t =
    Telemetry.window_tick t.s_window;
    let s = status t in
    let set g = function Some v -> Telemetry.set_gauge g v | None -> () in
    set g_window_seconds s.window_seconds;
    Telemetry.set_gauge g_window_observations (float_of_int s.observations);
    set g_window_p50 s.p50_ms;
    set g_window_p99 s.p99_ms;
    set g_window_error_rate s.error_rate;
    set g_p99_budget s.p99_budget_ms;
    set g_error_budget s.error_budget;
    set g_p99_burn s.p99_burn;
    set g_error_burn s.error_burn;
    Telemetry.set_gauge g_breached (if s.breached then 1.0 else 0.0);
    s
end

(* A request line waiting in the scheduler queue. *)
type job = {
  j_client : client;
  j_line : string;
  j_enqueued_s : float;  (* when [submit] pushed it — queue wait = dequeue - this *)
  j_mutex : Mutex.t;
  j_cond : Condition.t;
  mutable j_reply : string option;
}

type t = {
  timeout_seconds : float;
  library : Hb_cell.Library.t;
  dump : (string -> unit) option;  (* flight-recorder sink *)
  generators :
    (string * (unit -> Hb_netlist.Design.t * Hb_clock.System.t)) list;
      (* named built-in designs servable without files on disk *)
  max_sessions : int;          (* 0 = unlimited *)
  memory_budget_bytes : int;   (* 0 = unlimited *)
  reg_mutex : Mutex.t;         (* guards entries + e_binds + c_entry *)
  mutable entries : entry list;
  client_seq : int Atomic.t;
  default_client : client;     (* stdin mode and direct handle_line *)
  stopping : bool Atomic.t;
  rid_seq : int Atomic.t;
  ring_mutex : Mutex.t;        (* guards the flight-recorder ring *)
  summaries : summary option array;
  mutable summary_next : int;
  mutable scheduler : scheduler option;
      (* set by [start_scheduler]: the scheduler owns drain/teardown
         ([shutdown] only flags stop), and [readiness] reads its queue *)
  mutable serialize_pool : bool;
      (* > 1 scheduler domains: clamp per-session analysis pools to one
         job so deadline checks run on the guarded domain and no two
         requests race the shared pool's single job slot *)
  mutable slo : Slo.t option;  (* attached tracker: every [scrape] ticks it *)
}

and scheduler = {
  s_t : t;
  s_queue : job Squeue.t;
  mutable s_domains : unit Domain.t list;
  s_capacity : int;
}

(* Serve-layer failures that are not analysis errors: protocol problems
   get their own codes so clients can tell a bad request from a bad
   design. *)
exception Request_error of { code : string; message : string }

let bad_request fmt =
  Format.kasprintf
    (fun message -> raise (Request_error { code = "bad_request"; message }))
    fmt

(* Apply an edit batch, folding a rejection's failing index and op name
   into the error message so a client can repair the batch. *)
let apply_edits s edits =
  match Session.apply_r s edits with
  | Ok result -> result
  | Error { Session.failed_index; error } ->
    let prefix =
      match failed_index with
      | Some i ->
        (match List.nth_opt edits i with
         | Some e -> Printf.sprintf "edit %d (%s): " i (Edit.op_name e)
         | None -> Printf.sprintf "edit %d: " i)
      | None -> ""
    in
    raise
      (Request_error
         { code = Error.code error;
           message = prefix ^ Error.to_string error })

let create ?(timeout_seconds = 0.0) ?library ?dump ?(generators = [])
    ?(max_sessions = 8) ?(memory_budget_mb = 0) () =
  let library =
    match library with Some l -> l | None -> Hb_cell.Library.default ()
  in
  { timeout_seconds; library; dump; generators;
    max_sessions = Stdlib.max 0 max_sessions;
    memory_budget_bytes = Stdlib.max 0 memory_budget_mb * 1024 * 1024;
    reg_mutex = Mutex.create ();
    entries = [];
    client_seq = Atomic.make 1;
    default_client = { c_id = 0; c_entry = None };
    stopping = Atomic.make false;
    rid_seq = Atomic.make 0;
    ring_mutex = Mutex.create ();
    summaries = Array.make summary_capacity None;
    summary_next = 0;
    scheduler = None;
    serialize_pool = false;
    slo = None;
  }

let attach_slo t slo = t.slo <- Some slo

(* A scrape refreshes what only moves on scrape — the SLO window and its
   gauges, and the runtime gauges — before snapshotting the registry. *)
let scrape t =
  Option.iter (fun slo -> ignore (Slo.tick slo : Slo.status)) t.slo;
  Telemetry.sample_runtime ();
  Telemetry.snapshot ()

let finished t = Atomic.get t.stopping
let request_stop t = Atomic.set t.stopping true

let client t =
  let c = { c_id = Atomic.fetch_and_add t.client_seq 1; c_entry = None } in
  if Log.on Log.Debug then Log.debug "serve.client" [ ("client", Log.Int c.c_id) ];
  c

let release_client t c =
  Mutex.lock t.reg_mutex;
  (match c.c_entry with
   | Some e -> e.e_binds <- e.e_binds - 1
   | None -> ());
  c.c_entry <- None;
  Mutex.unlock t.reg_mutex

let set_active_clients n = Telemetry.set_gauge g_active_clients (float_of_int n)

(* --- flight recorder ------------------------------------------------- *)

(* Every request, executed or rejected, leaves one [serve.request]
   access-log line (Info, id first) and one flight-recorder summary.
   [wall_ms] stays the headline (queue + service); the split beside it
   is what makes saturation visible — under load a fast handler with a
   deep queue shows small service_ms and growing queue_ms. *)
let record t s =
  if Log.on Log.Info then
    Log.info "serve.request"
      [ ("request_id", Log.String s.rs_id);
        ("method", Log.String s.rs_method);
        ("outcome", Log.String s.rs_outcome);
        ("wall_ms", Log.Float s.rs_wall_ms);
        ("queue_ms", Log.Float s.rs_queue_ms);
        ("service_ms", Log.Float (s.rs_wall_ms -. s.rs_queue_ms));
        ("cpu_ms", Log.Float s.rs_cpu_ms);
      ];
  Mutex.lock t.ring_mutex;
  t.summaries.(t.summary_next mod summary_capacity) <- Some s;
  t.summary_next <- t.summary_next + 1;
  Mutex.unlock t.ring_mutex

let recent_summaries t =
  Mutex.lock t.ring_mutex;
  let out = ref [] in
  let count = Stdlib.min t.summary_next summary_capacity in
  for i = 1 to count do
    match
      t.summaries.((t.summary_next - i + (summary_capacity * 2))
                   mod summary_capacity)
    with
    | Some s -> out := s :: !out
    | None -> ()
  done;
  Mutex.unlock t.ring_mutex;
  !out

let json_of_log_event (e : Log.event) =
  Json.Obj
    (("ts", Json.Number e.Log.ts)
     :: ("level", Json.String (Log.level_name e.Log.event_level))
     :: ("site", Json.String e.Log.site)
     :: ("domain", Json.Number (float_of_int e.Log.domain))
     :: List.map
          (fun (key, v) ->
            ( key,
              match v with
              | Log.Bool b -> Json.Bool b
              | Log.Int i -> Json.Number (float_of_int i)
              | Log.Float f -> Json.Number f
              | Log.String s -> Json.String s ))
          e.Log.fields)

let json_of_summary s =
  Json.Obj
    [ ("ts", Json.Number s.rs_ts);
      ("request_id", Json.String s.rs_id);
      ("method", Json.String s.rs_method);
      ("outcome", Json.String s.rs_outcome);
      ("wall_ms", Json.Number s.rs_wall_ms);
      ("queue_ms", Json.Number s.rs_queue_ms);
      ("service_ms", Json.Number (s.rs_wall_ms -. s.rs_queue_ms));
      ("cpu_ms", Json.Number s.rs_cpu_ms);
    ]

(* The flight-recorder document: what [flight] replies with, and what
   {!flight_json} prints for the dump sink. *)
let flight_tree t =
  Json.Obj
    [ ("schema_version", Json.Number (float_of_int Json_export.schema_version));
      ("generated_ts", Json.Number (Unix.gettimeofday ()));
      ("requests", Json.List (List.map json_of_summary (recent_summaries t)));
      ("log", Json.List (List.map json_of_log_event (Log.recent ())));
    ]

let flight_json t = Json.to_string (flight_tree t)

let dump_flight t =
  match t.dump with
  | None -> ()
  | Some sink -> ( try sink (flight_json t) with _ -> ())

(* --- request plumbing ------------------------------------------------ *)

let params request =
  match Json.member "params" request with
  | Some (Json.Obj _ as p) -> p
  | Some Json.Null | None -> Json.Obj []
  | Some _ -> bad_request "params must be an object"

let field name accessor kind p =
  match Json.member name p with
  | None | Some Json.Null -> None
  | Some v ->
    (match accessor v with
     | Some v -> Some v
     | None -> bad_request "%s must be a %s" name kind)

let opt_float name p = field name Json.to_float "number" p
let opt_int name p = field name Json.to_int "integer" p
let opt_bool name p = field name Json.to_bool "boolean" p
let opt_text name p = field name Json.to_text "string" p

let req_text name p =
  match opt_text name p with
  | Some v -> v
  | None -> bad_request "missing required parameter %S" name

let req_float name p =
  match opt_float name p with
  | Some v -> v
  | None -> bad_request "missing required parameter %S" name

let req_int name p =
  match opt_int name p with
  | Some v -> v
  | None -> bad_request "missing required parameter %S" name

let no_design () =
  raise
    (Request_error
       { code = "no_design"; message = "no design loaded; call load first" })

let entry_of c = match c.c_entry with Some e -> e | None -> no_design ()

(* --- session registry ------------------------------------------------ *)

(* Evict least-recently-used unbound entries while over either budget.
   Called with [reg_mutex] held. Bound entries are never evicted; the
   write lock is immediate on an unbound entry (no client can reach it,
   so no query is in flight). *)
let evict_locked t =
  let over_count () =
    t.max_sessions > 0 && List.length t.entries > t.max_sessions
  in
  let over_memory () =
    t.memory_budget_bytes > 0
    && (match Hb_util.Rss.current_bytes () with
        | Some bytes -> bytes > t.memory_budget_bytes
        | None -> false)
  in
  let rec loop () =
    if over_count () || over_memory () then begin
      let victim =
        List.fold_left
          (fun acc e ->
            if e.e_binds > 0 then acc
            else
              match acc with
              | Some best when best.e_last_used <= e.e_last_used -> acc
              | _ -> Some e)
          None t.entries
      in
      match victim with
      | None -> ()  (* every resident session is bound; nothing evictable *)
      | Some victim ->
        t.entries <- List.filter (fun e -> e != victim) t.entries;
        Rwlock.with_write victim.e_lock (fun () ->
            Session.close victim.e_session);
        Telemetry.incr c_session_evictions;
        if Log.on Log.Info then
          Log.info "serve.session_evicted"
            [ ("key", Log.String victim.e_key) ];
        loop ()
    end
  in
  loop ();
  Telemetry.set_gauge g_sessions (float_of_int (List.length t.entries))

let shutdown_sessions t =
  Mutex.lock t.reg_mutex;
  let entries = t.entries in
  t.entries <- [];
  Telemetry.set_gauge g_sessions 0.0;
  Mutex.unlock t.reg_mutex;
  List.iter
    (fun e -> Rwlock.with_write e.e_lock (fun () -> Session.close e.e_session))
    entries;
  Hb_util.Pool.shutdown_shared ()

(* Read-lock fast path: when the session answers the query entirely from
   its caches it touches no state, so concurrent readers are safe. The
   cached check is advisory — re-checked under the read lock, falling
   back to the write lock when a concurrent mutation invalidated it. *)
let with_session_read ?(constraints = false) ?(hold = false) c f =
  let e = entry_of c in
  e.e_last_used <- Unix.gettimeofday ();
  let s = e.e_session in
  let fast =
    if Session.is_cached ~constraints ~hold s then
      Rwlock.with_read e.e_lock (fun () ->
          if Session.is_cached ~constraints ~hold s then Some (f s) else None)
    else None
  in
  match fast with
  | Some result -> result
  | None -> Rwlock.with_write e.e_lock (fun () -> f s)

let with_session_write c f =
  let e = entry_of c in
  e.e_last_used <- Unix.gettimeofday ();
  Rwlock.with_write e.e_lock (fun () -> f e.e_session)

(* --- method handlers: each returns the "result" value --------------- *)

(* [load]'s registry step, under [t.reg_mutex]: bind [c] to the session
   for [key], built from [source] on a miss. The texts come in as
   arguments, not in a closure, so they die once parsed. *)
let bind_session t c ~key ~source ~timing ~explicit_jobs ~telemetry ~macro
    ~delays =
  (* Rebind: drop the client's current session first so it can be
     evicted if this load pushes the registry over budget. *)
  (match c.c_entry with
   | Some e -> e.e_binds <- e.e_binds - 1; c.c_entry <- None
   | None -> ());
  let shared, e =
    match List.find_opt (fun e -> String.equal e.e_key key) t.entries with
    | Some e ->
      Telemetry.incr c_sessions_shared;
      if Log.on Log.Info then
        Log.info "serve.session_shared" [ ("key", Log.String key) ];
      (true, e)
    | None ->
      (* Parsed inputs → a session, configured after them, so a bad
         netlist or clocks text is reported before a bad timing text. *)
      let create (design, system) =
        let config =
          match timing with
          | None -> Config.default
          | Some (path, text) ->
            Error.reading path (fun () ->
                Config_format.parse ~base:Config.default text)
        in
        let config =
          match explicit_jobs with
          | None -> config
          | Some jobs -> { config with Config.parallel_jobs = jobs }
        in
        let config =
          if t.serialize_pool && config.Config.parallel_jobs > 1 then begin
            if Log.on Log.Warn then
              Log.warn "serve.jobs_clamped"
                [ ("requested", Log.Int config.Config.parallel_jobs) ];
            { config with Config.parallel_jobs = 1 }
          end
          else config
        in
        let config =
          match telemetry with
          | None -> config
          | Some telemetry -> { config with Config.telemetry }
        in
        let config =
          match macro with
          | None -> config
          | Some macro -> { config with Config.macro }
        in
        Session.create ~design ~system ~config ~delays ()
      in
      let fresh =
        match source with
        | `Snapshot path ->
          let s = Session.of_snapshot ~path in
          if t.serialize_pool
             && (Session.context s).Context.config.Config.parallel_jobs > 1
          then begin
            Session.close s;
            bad_request
              "snapshot %s was saved with jobs > 1; this daemon \
               schedules requests across domains" path
          end;
          s
        | `Generator name -> create ((List.assoc name t.generators) ())
        | `Files ((netlist, netlist_text), (clocks, clocks_text)) ->
          let design =
            Error.reading netlist (fun () ->
                if Filename.check_suffix netlist ".blif" then
                  Hb_netlist.Blif.parse ~library:t.library netlist_text
                else
                  Hb_netlist.Hbn_format.parse ~library:t.library netlist_text)
          in
          let system =
            Error.reading clocks (fun () -> Hb_clock.System.parse clocks_text)
          in
          create (design, system)
      in
      let e =
        { e_key = key;
          e_session = fresh;
          e_lock = Rwlock.create ();
          e_last_used = Unix.gettimeofday ();
          e_binds = 0;
        }
      in
      t.entries <- e :: t.entries;
      (false, e)
  in
  e.e_binds <- e.e_binds + 1;
  e.e_last_used <- Unix.gettimeofday ();
  c.c_entry <- Some e;
  evict_locked t;
  let ctx = Session.context e.e_session in
  let design = ctx.Context.design in
  Json.Obj
    [ ("design", Json.String design.Hb_netlist.Design.design_name);
      ( "instances",
        Json.Number
          (float_of_int (Hb_netlist.Design.instance_count design)) );
      ( "nets",
        Json.Number (float_of_int (Hb_netlist.Design.net_count design)) );
      ( "elements",
        Json.Number (float_of_int (Elements.count ctx.Context.elements)) );
      ( "clusters",
        Json.Number
          (float_of_int (Array.length ctx.Context.table.Cluster.clusters))
      );
      ("shared", Json.Bool shared);
    ]

let handle_load t c p =
  (* A registered generator, a snapshot, or netlist/clocks file paths. *)
  let source =
    match opt_text "snapshot" p with
    | Some path ->
      (match opt_text "generator" p, opt_text "netlist" p, opt_text "clocks" p
       with
       | None, None, None -> ()
       | _ -> bad_request "snapshot excludes generator/netlist/clocks");
      List.iter
        (fun name ->
          match Json.member name p with
          | None | Some Json.Null -> ()
          | Some _ ->
            bad_request
              "snapshot excludes %S (a snapshot carries its own \
               configuration)" name)
        [ "timing"; "jobs"; "telemetry"; "macro"; "delay_model" ];
      `Snapshot path
    | None ->
    match opt_text "generator" p with
    | Some name ->
      (match opt_text "netlist" p, opt_text "clocks" p with
       | None, None -> ()
       | _ -> bad_request "generator excludes netlist/clocks");
      (match List.assoc_opt name t.generators with
       | Some _ -> `Generator name
       | None ->
         bad_request "unknown generator %S%s" name
           (match t.generators with
            | [] -> " (this server registered no generators)"
            | gs ->
              Printf.sprintf " (expected one of: %s)"
                (String.concat ", " (List.map fst gs))))
    | None ->
      let netlist = req_text "netlist" p in
      let clocks = req_text "clocks" p in
      `Files (netlist, clocks)
  in
  let timing = opt_text "timing" p in
  let explicit_jobs = opt_int "jobs" p in
  (match explicit_jobs with
   | Some jobs when jobs < 1 -> bad_request "jobs must be >= 1 (got %d)" jobs
   | Some jobs when jobs > 1 && t.serialize_pool ->
     bad_request
       "jobs must be 1 when the daemon schedules requests across domains \
        (got %d)" jobs
   | _ -> ());
  let telemetry = opt_bool "telemetry" p in
  let macro = opt_bool "macro" p in
  let delay_model = Option.value ~default:"lumped" (opt_text "delay_model" p) in
  let delays =
    match Delays.of_name delay_model with
    | Some delays -> delays
    | None -> bad_request "unknown delay model %S (lumped|rc)" delay_model
  in
  (* The registry key is what the load reads, not where from: each file
     is read once, here, before the registry lock, so a file rewritten
     under a path loaded before is a miss and a byte-identical copy under
     other paths is a hit. A hit parses and regenerates nothing. *)
  let read path = (path, Hb_util.Text.read_file path) in
  let digest (_, text) = Digest.to_hex (Digest.string text) in
  let source =
    match source with
    | `Files (netlist, clocks) -> `Files (read netlist, read clocks)
    | (`Generator _ | `Snapshot _) as source -> source
  in
  let timing = Option.map read timing in
  let key =
    Printf.sprintf "%s|timing=%s|jobs=%s|telemetry=%s|macro=%s|delays=%s"
      (match source with
       | `Generator name -> "g:" ^ name
       | `Files (((path, _) as netlist), clocks) ->
         Printf.sprintf "f:%s:%s;%s"
           (if Filename.check_suffix path ".blif" then "blif" else "hbn")
           (digest netlist) (digest clocks)
       | `Snapshot path -> "s:" ^ Digest.to_hex (Digest.file path))
      (match timing with None -> "" | Some file -> digest file)
      (match explicit_jobs with None -> "" | Some j -> string_of_int j)
      (match telemetry with None -> "" | Some b -> string_of_bool b)
      (match macro with None -> "" | Some b -> string_of_bool b)
      delay_model
  in
  Mutex.lock t.reg_mutex;
  match
    bind_session t c ~key ~source ~timing ~explicit_jobs ~telemetry ~macro
      ~delays
  with
  | reply -> Mutex.unlock t.reg_mutex; reply
  | exception e -> Mutex.unlock t.reg_mutex; raise e

(* The report goes straight into the reply buffer in the compact
   layout, and while the session lock is held: an edit must not move the
   session under the writer. *)
let handle_analyse c p reply =
  let generate_constraints =
    Option.value ~default:true (opt_bool "constraints" p)
  in
  let check_hold = Option.value ~default:true (opt_bool "hold" p) in
  let paths = Option.value ~default:0 (opt_int "paths" p) in
  with_session_read ~constraints:generate_constraints ~hold:check_hold c
    (fun s ->
      let report = Session.analyse ~generate_constraints ~check_hold s in
      Json_export.add_report ~paths Json_export.Compact reply report)

(* Command [i] of an [edit] batch → a typed {!Edit.t}. Cell names
   resolve against the server's library here, so the session layer only
   ever sees resolved cells. *)
let edit_of_json t i p =
  let cell_field () =
    let name = req_text "cell" p in
    match Hb_cell.Library.find t.library name with
    | Some cell -> cell
    | None -> bad_request "edit %d: unknown cell %S" i name
  in
  match req_text "op" p with
  | "set_delay" ->
    Edit.Set_delay
      { instance = req_text "instance" p;
        rise = req_float "rise" p;
        fall = req_float "fall" p;
      }
  | "scale_delay" ->
    Edit.Scale_delay
      { instance = req_text "instance" p; factor = req_float "factor" p }
  | "annotate" ->
    Edit.Annotate
      (match opt_text "text" p, opt_text "file" p with
       | Some text, None -> Annotation.parse text
       | None, Some file ->
         Error.reading file (fun () -> Annotation.parse_file file)
       | Some _, Some _ -> bad_request "give either text or file, not both"
       | None, None -> bad_request "missing required parameter: text or file")
  | "set_offset" ->
    Edit.Set_offset
      { element = req_int "element" p; offset = req_float "value" p }
  | "insert_buffer" ->
    Edit.Insert_buffer
      { net = req_text "net" p;
        cell = cell_field ();
        inst_name = opt_text "inst_name" p;
        net_name = opt_text "net_name" p;
      }
  | "resize_gate" ->
    Edit.Resize_gate { instance = req_text "instance" p; cell = cell_field () }
  | "remove_gate" -> Edit.Remove_gate { instance = req_text "instance" p }
  | "rewire_net" ->
    Edit.Rewire_net
      { instance = req_text "instance" p;
        pin = req_text "pin" p;
        net = req_text "net" p;
      }
  | other -> bad_request "edit %d: unknown op %S" i other

(* One entry of an [edit] reply's [commands] list, read from the
   session after the batch: an annotation adds its entry count and the
   names it matched nowhere, an offset its value after clamping. *)
let command_reply s edit =
  let ctx = Session.context s in
  let extra =
    match edit with
    | Edit.Annotate annotation ->
      let unused = Annotation.unused annotation ~design:ctx.Context.design in
      [ ("entries", Json.Number (float_of_int (Annotation.count annotation)));
        ("unused", Json.List (List.map (fun n -> Json.String n) unused));
      ]
    | Edit.Set_offset { element; _ } ->
      let e = Elements.element ctx.Context.elements element in
      [ ("offset", Json.Number (Hb_sync.Element.o_dz e)) ]
    | Edit.Set_delay _ | Edit.Scale_delay _ | Edit.Insert_buffer _
    | Edit.Resize_gate _ | Edit.Remove_gate _ | Edit.Rewire_net _ -> []
  in
  Json.Obj
    (("op", Json.String (Edit.op_name edit))
     :: ("status", Json.String "applied") :: extra)

(* The one mutation method: validate-then-apply is atomic in the
   session, so the reply either reports every command applied or the
   envelope carries the rejection (failing index and op in the message)
   and the session is untouched. *)
let handle_edit t c p =
  let commands =
    match Json.member "commands" p with
    | Some (Json.List l) -> l
    | Some _ -> bad_request "commands must be a list"
    | None -> bad_request "missing required parameter \"commands\""
  in
  if commands = [] then bad_request "commands must be non-empty";
  let edits =
    List.mapi
      (fun i v ->
        match v with
        | Json.Obj _ -> edit_of_json t i v
        | _ -> bad_request "edit %d: command must be an object" i)
      commands
  in
  let result, replies =
    with_session_write c (fun s ->
        let result = apply_edits s edits in
        (result, List.map (command_reply s) edits))
  in
  Json.Obj
    [ ("applied", Json.Number (float_of_int result.Session.applied));
      ("structural", Json.Number (float_of_int result.Session.structural));
      ( "clusters_rebuilt",
        Json.Number (float_of_int result.Session.clusters_rebuilt) );
      ( "clusters_invalidated",
        Json.Number (float_of_int result.Session.clusters_invalidated) );
      ("commands", Json.List replies);
    ]

let handle_paths c p =
  let limit = Option.value ~default:5 (opt_int "limit" p) in
  let paths, elements =
    with_session_read c (fun s ->
        ( Session.worst_paths s ~limit,
          (Session.context s).Context.elements ))
  in
  Telemetry.observe h_paths (float_of_int (List.length paths));
  let label e = (Elements.element elements e).Hb_sync.Element.label in
  Json.Obj
    [ ( "paths",
        Json.List
          (List.map
             (fun (path : Paths.path) ->
                Json.Obj
                  [ ("start", Json.String (label path.Paths.start_element));
                    ("end", Json.String (label path.Paths.end_element));
                    ("slack", Json.Number path.Paths.slack);
                    ("cluster", Json.Number (float_of_int path.Paths.cluster));
                    ("cut", Json.Number (float_of_int path.Paths.cut));
                    ( "hops",
                      Json.Number
                        (float_of_int (List.length path.Paths.hops)) );
                  ])
             paths) );
    ]

let handle_constraints c =
  let times =
    with_session_read ~constraints:true c Session.constraints
  in
  let finite a =
    Array.fold_left
      (fun n v -> if Hb_util.Time.is_finite v then n + 1 else n)
      0 a
  in
  Json.Obj
    [ ( "snatch_backward_cycles",
        Json.Number (float_of_int times.Algorithm2.snatch_backward_cycles) );
      ( "snatch_forward_cycles",
        Json.Number (float_of_int times.Algorithm2.snatch_forward_cycles) );
      ("capped", Json.Bool times.Algorithm2.capped);
      ("ready_nets", Json.Number (float_of_int (finite times.Algorithm2.ready)));
    ]

let handle_hold c =
  let violations =
    with_session_read ~hold:true c Session.hold
  in
  Json.Obj
    [ ( "violations",
        Json.List
          (List.map
             (fun (v : Holdcheck.violation) ->
                Json.Obj
                  [ ("element", Json.String v.Holdcheck.label);
                    ("margin", Json.Number v.Holdcheck.margin);
                  ])
             violations) );
    ]

(* Busy-wait polling the deadline at every iteration — a test hook for
   exercising the timeout path (the engines poll the same way at their
   pass boundaries), not a scheduler. *)
let handle_sleep p =
  let seconds = req_float "seconds" p in
  let deadline = Unix.gettimeofday () +. seconds in
  while Unix.gettimeofday () < deadline do
    Hb_util.Timeout.check ();
    ignore (Sys.opaque_identity (Unix.gettimeofday ()))
  done;
  Json.Obj [ ("slept", Json.Number seconds) ]

let handle_shutdown t =
  Atomic.set t.stopping true;
  (* With a scheduler attached, teardown belongs to the connection layer
     (stop accepting, drain in-flight, then stop_scheduler and
     shutdown_sessions); here, closing sessions under a live scheduler
     would race requests already executing. Without one — the stdin loop
     and direct handle_line callers — tear down synchronously, as the
     single-client daemon always did. *)
  if Option.is_none t.scheduler then shutdown_sessions t;
  Json.Obj [ ("stopping", Json.Bool true) ]

(* A method's result: a tree for the envelope to print, or [Written]
   when the method has appended its result to the reply buffer itself. *)
type answer = Tree of Json.t | Written

let dispatch t c ~meth p reply =
  match meth with
  | "analyse" ->
    handle_analyse c p reply;
    Written
  | meth ->
    Tree
      (match meth with
       | "ping" -> Json.Obj [ ("pong", Json.Bool true) ]
       | "load" -> handle_load t c p
       | "edit" -> handle_edit t c p
       | "paths" -> handle_paths c p
       | "constraints" -> handle_constraints c
       | "hold" -> handle_hold c
       | "metrics" -> Json.String (Telemetry.prometheus (scrape t))
       | "flight" -> flight_tree t
       | "sleep" -> handle_sleep p
       | "shutdown" -> handle_shutdown t
       | other -> bad_request "unknown method %S" other)

(* --- the envelope ---------------------------------------------------- *)

(* Each reply is printed once into one buffer. It opens with these
   fields, as [Json.to_string] prints them, and goes on with its body:
   ["result"] when [status] is ["ok"], ["error"] otherwise. *)
let open_reply reply ~rid ~id ~status =
  Buffer.add_string reply "{\"schema_version\":";
  Buffer.add_string reply (string_of_int Json_export.schema_version);
  Buffer.add_string reply ",\"id\":";
  Json.add reply id;
  Buffer.add_string reply ",\"request_id\":";
  Json.add_quoted reply rid;
  Buffer.add_string reply ",\"status\":";
  Json.add_quoted reply status

(* An error reply replaces whatever the buffer holds. *)
let error reply ~rid ~id ~code message =
  Telemetry.incr c_errors;
  if code = "timeout" then Telemetry.incr c_timeouts;
  Buffer.clear reply;
  open_reply reply ~rid ~id ~status:"error";
  Buffer.add_string reply ",\"error\":";
  Json.add reply
    (Json.Obj [ ("code", Json.String code); ("message", Json.String message) ]);
  Buffer.add_char reply '}'

let next_rid t = Printf.sprintf "r%d" (Atomic.fetch_and_add t.rid_seq 1 + 1)

let handle_line ?client ?queue_wait_s t line =
  let client = Option.value ~default:t.default_client client in
  Telemetry.incr c_requests;
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let observing = Telemetry.enabled () in
  (* Engine-work delta on this domain's shard only: under concurrent
     serving the global sum would attribute other requests' clusters to
     this one. *)
  let clusters0 =
    if observing then Telemetry.read_counter_local c_clusters_evaluated else 0
  in
  let parsed =
    match Json.parse line with
    | request -> Ok request
    | exception Json.Parse_error { position; message } ->
      Error (Printf.sprintf "malformed request at byte %d: %s" position message)
  in
  (* The request id threads the whole observation chain: reply envelope,
     access-log line, span tags in the trace, flight-recorder summary. *)
  let rid =
    match parsed with
    | Ok request ->
      (match Json.member "request_id" request with
       | Some (Json.String s) when s <> "" -> s
       | _ -> next_rid t)
    | Error _ -> next_rid t
  in
  let meth_seen = ref "?" in
  let outcome = ref "ok" in
  let reply = Buffer.create 256 in
  let fail ~id ~code message =
    outcome := code;
    error reply ~rid ~id ~code message
  in
  (match parsed with
   | Error message -> fail ~id:Json.Null ~code:"bad_request" message
   | Ok request ->
     let id = Option.value ~default:Json.Null (Json.member "id" request) in
     (try
        (match Json.member "schema_version" request with
         | None | Some Json.Null -> ()
         | Some v ->
           (match Json.to_int v with
            | Some version when version = Json_export.schema_version -> ()
            | Some version ->
              raise
                (Request_error
                   { code = "schema_version";
                     message =
                       Printf.sprintf
                         "unsupported schema version %d (server speaks %d)"
                         version Json_export.schema_version;
                   })
            | None -> bad_request "schema_version must be an integer"));
        let meth =
          match Json.member "method" request with
          | Some (Json.String m) -> m
          | Some _ -> bad_request "method must be a string"
          | None -> bad_request "missing method"
        in
        meth_seen := meth;
        let p = params request in
        let seconds =
          Option.value ~default:t.timeout_seconds (opt_float "timeout" request)
        in
        open_reply reply ~rid ~id ~status:"ok";
        Buffer.add_string reply ",\"result\":";
        (match
           Telemetry.with_tag rid (fun () ->
               Hb_util.Timeout.with_timeout ~seconds (fun () ->
                   dispatch t client ~meth p reply))
         with
         | Tree result -> Json.add reply result
         | Written -> ());
        Buffer.add_char reply '}'
      with
      | Request_error { code; message } -> fail ~id ~code message
      | Hb_util.Timeout.Timeout seconds ->
        fail ~id ~code:"timeout"
          (Printf.sprintf "request exceeded its %gs budget" seconds)
      | e ->
        (match Error.of_exn e with
         | Some err -> fail ~id ~code:(Error.code err) (Error.to_string err)
         | None ->
           (* Unrecognised exceptions must not kill the daemon either. *)
           fail ~id ~code:"internal" (Printexc.to_string e))));
  let text = Buffer.contents reply in
  let service_ms = (Unix.gettimeofday () -. wall0) *. 1000.0 in
  let queue_ms =
    match queue_wait_s with Some s -> s *. 1000.0 | None -> 0.0
  in
  (* What the client saw: its line sat in the scheduler queue before a
     worker ever started the clock above. *)
  let wall_ms = queue_ms +. service_ms in
  let cpu_ms = (Sys.time () -. cpu0) *. 1000.0 in
  if observing then begin
    Telemetry.observe h_request_seconds (wall_ms /. 1000.0);
    (match queue_wait_s with
     | Some s -> Telemetry.observe h_queue_wait_seconds s
     | None -> ());
    let clusters =
      Telemetry.read_counter_local c_clusters_evaluated - clusters0
    in
    if clusters > 0 then
      Telemetry.observe h_clusters (float_of_int clusters)
  end;
  record t
    { rs_ts = wall0;
      rs_id = rid;
      rs_method = !meth_seen;
      rs_outcome = !outcome;
      rs_wall_ms = wall_ms;
      rs_queue_ms = queue_ms;
      rs_cpu_ms = cpu_ms;
    };
  (* Any structured error reply is a post-mortem trigger. *)
  if !outcome <> "ok" then dump_flight t;
  text

(* Reply to a request without executing it: the admission-control and
   shutdown paths. The line is parsed leniently, only to echo id and
   request_id back; an unparseable line still gets an envelope. Counted
   in the flight ring and access log, but no flight dump — an overload
   storm must not amplify into a dump storm. *)
let reject_line t ~code ~message line =
  let id, rid, meth =
    match Json.parse line with
    | request ->
      ( Option.value ~default:Json.Null (Json.member "id" request),
        (match Json.member "request_id" request with
         | Some (Json.String s) when s <> "" -> s
         | _ -> next_rid t),
        (match Json.member "method" request with
         | Some (Json.String m) -> m
         | _ -> "?") )
    | exception _ -> (Json.Null, next_rid t, "?")
  in
  if String.equal code "overloaded" then Telemetry.incr c_rejected;
  let reply = Buffer.create 256 in
  error reply ~rid ~id ~code message;
  let text = Buffer.contents reply in
  record t
    { rs_ts = Unix.gettimeofday ();
      rs_id = rid;
      rs_method = meth;
      rs_outcome = code;
      rs_wall_ms = 0.0;
      rs_queue_ms = 0.0;
      rs_cpu_ms = 0.0;
    };
  text

(* --- the request scheduler ------------------------------------------- *)

let deliver job reply =
  Mutex.lock job.j_mutex;
  job.j_reply <- Some reply;
  Condition.signal job.j_cond;
  Mutex.unlock job.j_mutex

let worker_loop sched =
  let t = sched.s_t in
  let rec loop () =
    match Squeue.pop sched.s_queue with
    | None -> ()
    | Some job ->
      Telemetry.set_gauge g_queue_depth
        (float_of_int (Squeue.length sched.s_queue));
      let queue_wait_s =
        Stdlib.max 0.0 (Unix.gettimeofday () -. job.j_enqueued_s)
      in
      let reply =
        if Atomic.get t.stopping then
          reject_line t ~code:"shutting_down"
            ~message:"server is shutting down" job.j_line
        else handle_line ~client:job.j_client ~queue_wait_s t job.j_line
      in
      deliver job reply;
      loop ()
  in
  loop ()

let start_scheduler t ~workers ~queue_capacity =
  let workers = Stdlib.max 1 workers in
  let queue_capacity = Stdlib.max 1 queue_capacity in
  if workers > 1 then t.serialize_pool <- true;
  let sched =
    { s_t = t;
      s_queue = Squeue.create ~capacity:queue_capacity;
      s_domains = [];
      s_capacity = queue_capacity;
    }
  in
  t.scheduler <- Some sched;
  sched.s_domains <-
    List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop sched));
  if Log.on Log.Info then
    Log.info "serve.scheduler"
      [ ("workers", Log.Int workers); ("queue", Log.Int queue_capacity) ];
  sched

let submit sched client line =
  let t = sched.s_t in
  if Atomic.get t.stopping then
    reject_line t ~code:"shutting_down" ~message:"server is shutting down" line
  else begin
    let job =
      { j_client = client;
        j_line = line;
        j_enqueued_s = Unix.gettimeofday ();
        j_mutex = Mutex.create ();
        j_cond = Condition.create ();
        j_reply = None;
      }
    in
    if Squeue.try_push sched.s_queue job then begin
      Telemetry.set_gauge g_queue_depth
        (float_of_int (Squeue.length sched.s_queue));
      Mutex.lock job.j_mutex;
      while job.j_reply = None do
        Condition.wait job.j_cond job.j_mutex
      done;
      let reply = Option.get job.j_reply in
      Mutex.unlock job.j_mutex;
      reply
    end
    else
      reject_line t ~code:"overloaded"
        ~message:
          (Printf.sprintf "request queue is full (capacity %d)"
             sched.s_capacity)
        line
  end

let stop_scheduler sched =
  Squeue.close sched.s_queue;
  List.iter Domain.join sched.s_domains;
  sched.s_domains <- []

(* --- readiness -------------------------------------------------------- *)

type readiness =
  | Ready
  | Draining  (* shutdown has begun; in-flight requests still finish *)
  | Saturated of { depth : int; capacity : int }

(* What a load balancer should ask before routing here: not draining,
   and the scheduler queue below its admission bound (at the bound the
   next request would be rejected [overloaded] anyway). Without a
   scheduler (the stdin loop) there is no queue to saturate. *)
let readiness t =
  if Atomic.get t.stopping then Draining
  else
    match t.scheduler with
    | None -> Ready
    | Some sched ->
      let depth = Squeue.length sched.s_queue in
      if depth >= sched.s_capacity then
        Saturated { depth; capacity = sched.s_capacity }
      else Ready

(* --- the single-channel loop ----------------------------------------- *)

let run t ic oc =
  let rec loop () =
    if not (finished t) then
      match input_line ic with
      | exception End_of_file -> ()
      | line when String.trim line = "" -> loop ()
      | line ->
        output_string oc (handle_line t line);
        output_char oc '\n';
        flush oc;
        loop ()
  in
  (* End-of-input without shutdown: tear the sessions down anyway. *)
  let teardown () = shutdown_sessions t in
  (* handle_line never raises, but channel IO can: leave a flight dump
     behind before the exception escapes. *)
  match loop () with
  | () -> teardown ()
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    dump_flight t;
    teardown ();
    Printexc.raise_with_backtrace e bt
