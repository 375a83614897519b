(* The telemetry plane end to end: a real TCP client against
   Hb_util.Httpd and Hb_sta.Monitor, plus the queue-wait / service-time
   split the monitor exports. Servers bind port 0 so parallel test
   runners never collide. *)

module Httpd = Hb_util.Httpd
module Telemetry = Hb_util.Telemetry
module Serve = Hb_sta.Serve
module Monitor = Hb_sta.Monitor
module Json = Hb_util.Json

let find_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i =
    if i + n > h then None
    else if String.sub haystack i n = needle then Some i
    else scan (i + 1)
  in
  if n = 0 then Some 0 else scan 0

(* A deliberately naive HTTP/1.0-style client: one request, read to
   EOF, split head from body. Naive is the point — it must match what
   curl and a Prometheus scraper minimally do. *)
let http_request ~port ~meth path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let request =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n\r\n" meth path
      in
      let _ = Unix.write_substring fd request 0 (String.length request) in
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      drain ();
      let raw = Buffer.contents buf in
      let head_end =
        match find_sub raw "\r\n\r\n" with
        | Some i -> i
        | None -> Alcotest.failf "no header terminator in reply: %S" raw
      in
      let head = String.sub raw 0 head_end in
      let body =
        String.sub raw (head_end + 4) (String.length raw - head_end - 4)
      in
      let status =
        match String.split_on_char ' ' head with
        | _http :: code :: _ -> int_of_string code
        | _ -> Alcotest.failf "unparseable status line: %S" head
      in
      (status, head, body))

let http_get ~port path = http_request ~port ~meth:"GET" path

let contains haystack needle =
  find_sub haystack needle <> None

(* --- Httpd alone --------------------------------------------------- *)

let test_httpd_basics () =
  let hits = Atomic.make 0 in
  let server =
    Httpd.start ~port:0
      ~handlers:
        [ ( "/ping",
            fun () ->
              Atomic.incr hits;
              Httpd.response "pong\n" );
          ("/boom", fun () -> failwith "handler exploded") ]
      ()
  in
  Fun.protect
    ~finally:(fun () -> Httpd.stop server)
    (fun () ->
      let port = Httpd.port server in
      if port <= 0 then Alcotest.fail "port 0 must resolve to a real port";
      let status, head, body = http_get ~port "/ping" in
      Alcotest.(check int) "200 on known path" 200 status;
      Alcotest.(check string) "body" "pong\n" body;
      if not (contains head "Content-Length: 5") then
        Alcotest.failf "missing content length: %S" head;
      (* Query strings are stripped before handler lookup. *)
      let status, _, _ = http_get ~port "/ping?debug=1" in
      Alcotest.(check int) "query string stripped" 200 status;
      let status, _, _ = http_get ~port "/nope" in
      Alcotest.(check int) "404 on unknown path" 404 status;
      let status, _, _ = http_request ~port ~meth:"POST" "/ping" in
      Alcotest.(check int) "405 on POST" 405 status;
      (* A handler exception is a 500 reply, and the server survives. *)
      let status, _, _ = http_get ~port "/boom" in
      Alcotest.(check int) "500 on handler exception" 500 status;
      let status, _, _ = http_get ~port "/ping" in
      Alcotest.(check int) "alive after handler exception" 200 status;
      Alcotest.(check int) "handler ran per hit" 3 (Atomic.get hits));
  (* stop is idempotent, and the port is actually released. *)
  Httpd.stop server;
  match http_get ~port:(Httpd.port server) "/ping" with
  | _ -> Alcotest.fail "server still answering after stop"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
  | exception _ -> ()

(* --- Monitor over a live daemon ------------------------------------ *)

let with_daemon ?(workers = 1) f =
  Telemetry.set_enabled true;
  Telemetry.reset ();
  let daemon =
    Serve.create
      ~generators:
        [ ("des", fun () -> Hb_workload.Chips.des ());
          ( "slow_des",
            fun () ->
              Thread.delay 0.2;
              Hb_workload.Chips.des () ) ]
      ()
  in
  let sched = Serve.start_scheduler daemon ~workers ~queue_capacity:8 in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop_scheduler sched;
      Serve.shutdown_sessions daemon;
      Telemetry.set_enabled false;
      Telemetry.reset ())
    (fun () -> f daemon sched)

let rpc sched client ~id ~meth params =
  let fields =
    [ ("id", Json.Number (float_of_int id)); ("method", Json.String meth) ]
    @ match params with [] -> [] | p -> [ ("params", Json.Obj p) ]
  in
  Serve.submit sched client (Json.to_string (Json.Obj fields))

let test_monitor_endpoints () =
  with_daemon (fun daemon sched ->
      let slo = Serve.Slo.create ~p99_budget_ms:1000.0 () in
      Serve.attach_slo daemon slo;
      let monitor = Monitor.start ~port:0 daemon in
      Fun.protect
        ~finally:(fun () -> Monitor.stop monitor)
        (fun () ->
          let port = Monitor.port monitor in
          let client = Serve.client daemon in
          ignore
            (rpc sched client ~id:1 ~meth:"load"
               [ ("generator", Json.String "des") ]);
          ignore (rpc sched client ~id:2 ~meth:"constraints" []);
          Serve.release_client daemon client;
          (* /metrics: Prometheus exposition carrying the runtime
             gauges, the queue-wait histogram and the SLO gauges — the
             acceptance bar of the telemetry plane. *)
          let status, head, body = http_get ~port "/metrics" in
          Alcotest.(check int) "metrics 200" 200 status;
          if not (contains head "text/plain; version=0.0.4") then
            Alcotest.failf "not a prometheus exposition: %S" head;
          List.iter
            (fun metric ->
              if not (contains body metric) then
                Alcotest.failf "/metrics lacks %s" metric)
            [ "hb_runtime_gc_minor_words";
              "hb_runtime_rss_bytes";
              "hb_serve_queue_wait_seconds_bucket";
              "hb_serve_request_seconds_count";
              "hb_slo_window_p99_ms";
              "hb_slo_window_observations";
              "hb_slo_p99_budget_ms 1000";
              "hb_slo_breached 0" ];
          (* /healthz and /readyz while running. *)
          let status, _, body = http_get ~port "/healthz" in
          Alcotest.(check int) "healthz 200" 200 status;
          Alcotest.(check string) "healthz body" "ok\n" body;
          let status, _, body = http_get ~port "/readyz" in
          Alcotest.(check int) "readyz 200" 200 status;
          Alcotest.(check string) "readyz body" "ready\n" body;
          (* /flight parses and carries the served requests. *)
          let status, _, body = http_get ~port "/flight" in
          Alcotest.(check int) "flight 200" 200 status;
          (match Json.parse body with
           | Json.Obj fields ->
             (match List.assoc_opt "requests" fields with
              | Some (Json.List (_ :: _)) -> ()
              | _ -> Alcotest.fail "flight lacks request summaries")
           | _ -> Alcotest.fail "flight is not a JSON object"
           | exception _ -> Alcotest.failf "flight unparseable: %S" body);
          (* /buildinfo: static identity. *)
          let status, _, body = http_get ~port "/buildinfo" in
          Alcotest.(check int) "buildinfo 200" 200 status;
          if not (contains body Sys.ocaml_version) then
            Alcotest.fail "buildinfo lacks the OCaml version";
          (* Drain flips readiness, liveness stays green — exactly what
             a load balancer + supervisor pair needs during SIGTERM. *)
          Serve.request_stop daemon;
          let status, _, body = http_get ~port "/readyz" in
          Alcotest.(check int) "readyz 503 during drain" 503 status;
          Alcotest.(check string) "drain body" "draining\n" body;
          let status, _, _ = http_get ~port "/healthz" in
          Alcotest.(check int) "healthz still 200 during drain" 200 status))

(* /readyz reads the daemon's own scheduler: with the one worker held
   by a sleep and 8 pings filling the queue of 8, the next request would
   be refused, so the probe answers 503 until the queue drains. *)
let test_readyz_saturated () =
  with_daemon ~workers:1 (fun daemon sched ->
      let monitor = Monitor.start ~port:0 daemon in
      Fun.protect
        ~finally:(fun () -> Monitor.stop monitor)
        (fun () ->
          let port = Monitor.port monitor in
          let submit ~id ~meth params () =
            let client = Serve.client daemon in
            ignore (rpc sched client ~id ~meth params);
            Serve.release_client daemon client
          in
          let sleeper =
            Thread.create
              (submit ~id:1 ~meth:"sleep" [ ("seconds", Json.Number 1.0) ])
              ()
          in
          Thread.delay 0.05;
          let pings =
            List.init 8 (fun i ->
                Thread.create (submit ~id:(i + 2) ~meth:"ping" []) ())
          in
          let deadline = Unix.gettimeofday () +. 5.0 in
          while
            Serve.readiness daemon = Serve.Ready
            && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.001
          done;
          let status, _, body = http_get ~port "/readyz" in
          Alcotest.(check int) "readyz 503 while saturated" 503 status;
          Alcotest.(check string) "saturated body" "overloaded: queue 8/8\n"
            body;
          List.iter Thread.join (sleeper :: pings);
          let status, _, body = http_get ~port "/readyz" in
          Alcotest.(check int) "readyz 200 once drained" 200 status;
          Alcotest.(check string) "drained body" "ready\n" body))

let test_queue_wait_split () =
  with_daemon ~workers:1 (fun daemon sched ->
      let slow_client = Serve.client daemon in
      let fast_client = Serve.client daemon in
      (* One worker: a slow load occupies it while the ping queues. *)
      let slow =
        Thread.create
          (fun () ->
            ignore
              (rpc sched slow_client ~id:10 ~meth:"load"
                 [ ("generator", Json.String "slow_des") ]))
          ()
      in
      Thread.delay 0.05;
      ignore (rpc sched fast_client ~id:11 ~meth:"ping" []);
      Thread.join slow;
      Serve.release_client daemon slow_client;
      Serve.release_client daemon fast_client;
      let number fields name =
        match List.assoc_opt name fields with
        | Some (Json.Number v) -> v
        | _ -> Alcotest.failf "summary lacks %s" name
      in
      let summaries =
        match Json.parse (Serve.flight_json daemon) with
        | Json.Obj fields ->
          (match List.assoc_opt "requests" fields with
           | Some (Json.List l) ->
             List.filter_map (function Json.Obj o -> Some o | _ -> None) l
           | _ -> Alcotest.fail "flight lacks requests")
        | _ -> Alcotest.fail "flight is not an object"
      in
      let ping =
        match
          List.find_opt
            (fun o ->
              List.assoc_opt "method" o = Some (Json.String "ping"))
            summaries
        with
        | Some o -> o
        | None -> Alcotest.fail "ping summary missing from flight"
      in
      let queue_ms = number ping "queue_ms" in
      let service_ms = number ping "service_ms" in
      let wall_ms = number ping "wall_ms" in
      (* The worker was busy for ~150ms after the ping queued; a ping's
         service time is microseconds. The split must show that. *)
      if queue_ms < 50.0 then
        Alcotest.failf "ping queue_ms %.1f too small for a busy worker"
          queue_ms;
      if service_ms > 50.0 then
        Alcotest.failf "ping service_ms %.1f should be tiny" service_ms;
      if Float.abs (wall_ms -. (queue_ms +. service_ms)) > 0.5 then
        Alcotest.failf "wall %.3f != queue %.3f + service %.3f" wall_ms
          queue_ms service_ms;
      (* The same split feeds the histogram the bench gates on. *)
      let snap =
        Telemetry.read_histogram
          (Telemetry.histogram "serve.queue_wait_seconds")
      in
      if snap.Telemetry.total < 2 then
        Alcotest.failf "queue-wait histogram saw %d of 2 requests"
          snap.Telemetry.total)

let () =
  Alcotest.run "monitor"
    [ ("httpd", [ Alcotest.test_case "basics" `Quick test_httpd_basics ]);
      ( "monitor",
        [ Alcotest.test_case "endpoints and drain" `Quick
            test_monitor_endpoints;
          Alcotest.test_case "readyz while saturated" `Quick
            test_readyz_saturated ] );
      ( "phase split",
        [ Alcotest.test_case "queue wait vs service" `Quick
            test_queue_wait_split ] ) ]
