(* The live telemetry plane: the HTTP face a fleet operator points
   Prometheus and a load balancer at. Pure assembly — every endpoint is
   a thin thunk over the serve daemon, which owns the telemetry scrape,
   its SLO tracker and its scheduler; the listener itself is
   {!Hb_util.Httpd}. *)

module Httpd = Hb_util.Httpd
module Telemetry = Hb_util.Telemetry
module Json = Hb_util.Json

type t = { httpd : Httpd.t }

let prometheus_content_type = "text/plain; version=0.0.4; charset=utf-8"

let buildinfo_body ~started_s =
  Json.to_string
    (Json.Obj
       [ ("name", Json.String "hummingbird");
         ( "schema_version",
           Json.Number (float_of_int Json_export.schema_version) );
         ("ocaml", Json.String Sys.ocaml_version);
         ("word_size", Json.Number (float_of_int Sys.word_size));
         ("os_type", Json.String Sys.os_type);
         ("pid", Json.Number (float_of_int (Unix.getpid ())));
         ("started_ts", Json.Number started_s);
       ])

let start ?(addr = "127.0.0.1") ~port daemon =
  let started_s = Unix.gettimeofday () in
  let metrics () =
    Httpd.response ~content_type:prometheus_content_type
      (Telemetry.prometheus (Serve.scrape daemon))
  in
  let healthz () =
    (* Liveness: the accept thread answered, so the process is alive.
       Deliberately never 503 — draining daemons are still live. *)
    Httpd.response "ok\n"
  in
  let readyz () =
    match Serve.readiness daemon with
    | Serve.Ready -> Httpd.response "ready\n"
    | Serve.Draining -> Httpd.response ~status:503 "draining\n"
    | Serve.Saturated { depth; capacity } ->
      Httpd.response ~status:503
        (Printf.sprintf "overloaded: queue %d/%d\n" depth capacity)
  in
  let flight () =
    Httpd.response ~content_type:"application/json"
      (Serve.flight_json daemon)
  in
  let buildinfo_body = buildinfo_body ~started_s in
  let buildinfo () =
    Httpd.response ~content_type:"application/json" buildinfo_body
  in
  { httpd =
      Httpd.start ~addr ~port
        ~handlers:
          [ ("/metrics", metrics);
            ("/healthz", healthz);
            ("/readyz", readyz);
            ("/flight", flight);
            ("/buildinfo", buildinfo);
          ]
        ();
  }

let port t = Httpd.port t.httpd
let stop t = Httpd.stop t.httpd
