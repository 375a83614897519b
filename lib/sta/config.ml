type port_timing = {
  edge : Hb_clock.Edge.t;
  offset : Hb_util.Time.t;
}

type t = {
  io_clock : string option;
  default_input_arrival : Hb_util.Time.t;
  default_output_required : Hb_util.Time.t;
  port_overrides : (string * port_timing) list;
  max_transfer_iterations : int;
  partial_transfer_divisor : float;
  rise_fall : bool;
  multicycle : (string * int) list;
  incremental : bool;
  parallel_jobs : int;
  macro : bool;
  telemetry : bool;
}

let default =
  { io_clock = None;
    default_input_arrival = 0.0;
    default_output_required = 0.0;
    port_overrides = [];
    max_transfer_iterations = 200;
    partial_transfer_divisor = 2.0;
    rise_fall = false;
    multicycle = [];
    incremental = true;
    parallel_jobs = Hb_util.Pool.recommended_jobs ();
    macro = false;
    telemetry = false;
  }

let sequential =
  { default with incremental = false; parallel_jobs = 1 }

exception Config_error of string

let port_timing t ~system ~port ~direction =
  match List.assoc_opt port t.port_overrides with
  | Some timing -> timing
  | None ->
    let clock_name =
      match t.io_clock with
      | Some name -> name
      | None ->
        (match system.Hb_clock.System.waveforms with
         | w :: _ -> w.Hb_clock.Waveform.name
         | [] ->
           raise (Config_error "port_timing: clock system has no waveforms"))
    in
    (match Hb_clock.System.find system clock_name with
     | None ->
       raise (Config_error
                (Printf.sprintf "port_timing: unknown io clock %s" clock_name))
     | Some _ ->
       let edge = Hb_clock.Edge.leading ~clock:clock_name ~pulse:0 in
       let offset =
         match direction with
         | `Input -> t.default_input_arrival
         | `Output -> t.default_output_required
       in
       { edge; offset })
