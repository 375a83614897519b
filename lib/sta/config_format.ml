module Text = Hb_util.Text

let polarity_field lineno value ~clock ~pulse =
  match value with
  | "leading" -> Hb_clock.Edge.leading ~clock ~pulse
  | "trailing" -> Hb_clock.Edge.trailing ~clock ~pulse
  | other -> Text.error lineno "expected 'leading' or 'trailing', got %S" other

let parse ?(base = Config.default) text =
  let config = ref base in
  let parse_line (r : Text.t) =
    let lineno = r.line in
    match Text.tokens r with
    | [ "io-clock"; name ] ->
      config := { !config with Config.io_clock = Some name }
    | [ "default-input-arrival"; v ] ->
      config :=
        { !config with
          Config.default_input_arrival =
            Text.float_field lineno "default-input-arrival" v }
    | [ "default-output-required"; v ] ->
      config :=
        { !config with
          Config.default_output_required =
            Text.float_field lineno "default-output-required" v }
    | [ "rise-fall"; flag ] ->
      (match flag with
       | "on" -> config := { !config with Config.rise_fall = true }
       | "off" -> config := { !config with Config.rise_fall = false }
       | other -> Text.error lineno "rise-fall: expected on/off, got %S" other)
    | [ "max-iterations"; v ] ->
      config :=
        { !config with
          Config.max_transfer_iterations =
            Text.int_field lineno "max-iterations" v }
    | [ "multicycle"; inst; n ] ->
      let n = Text.int_field lineno "multicycle" n in
      if n < 1 then Text.error lineno "multicycle: count must be >= 1";
      config :=
        { !config with
          Config.multicycle =
            (inst, n) :: List.remove_assoc inst !config.Config.multicycle }
    | [ "partial-divisor"; v ] ->
      config :=
        { !config with
          Config.partial_transfer_divisor =
            Text.float_field lineno "partial-divisor" v }
    | [ "incremental"; flag ] ->
      (match flag with
       | "on" -> config := { !config with Config.incremental = true }
       | "off" -> config := { !config with Config.incremental = false }
       | other ->
         Text.error lineno "incremental: expected on/off, got %S" other)
    | [ "macro"; flag ] ->
      (match flag with
       | "on" -> config := { !config with Config.macro = true }
       | "off" -> config := { !config with Config.macro = false }
       | other -> Text.error lineno "macro: expected on/off, got %S" other)
    | [ "telemetry"; flag ] ->
      (match flag with
       | "on" -> config := { !config with Config.telemetry = true }
       | "off" -> config := { !config with Config.telemetry = false }
       | other -> Text.error lineno "telemetry: expected on/off, got %S" other)
    | [ "parallel-jobs"; v ] ->
      let jobs =
        if v = "auto" then Hb_util.Pool.recommended_jobs ()
        else Text.int_field lineno "parallel-jobs" v
      in
      if jobs < 1 then Text.error lineno "parallel-jobs: must be >= 1";
      config := { !config with Config.parallel_jobs = jobs }
    | [ direction; port; "clock"; clock; polarity; "pulse"; pulse;
        "offset"; offset ]
      when direction = "input" || direction = "output" ->
      let pulse = Text.int_field lineno "pulse" pulse in
      if pulse < 0 then Text.error lineno "pulse: must be non-negative";
      let edge = polarity_field lineno polarity ~clock ~pulse in
      let timing =
        { Config.edge; offset = Text.float_field lineno "offset" offset }
      in
      config :=
        { !config with
          Config.port_overrides =
            (port, timing)
            :: List.remove_assoc port !config.Config.port_overrides }
    | _ -> Text.error lineno "unknown directive %S" (Text.token r 0)
  in
  ignore (Text.walk text parse_line);
  !config

let parse_file ?base path = parse ?base (Text.read_file path)

let to_string (config : Config.t) =
  let buffer = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  (match config.Config.io_clock with
   | Some name -> add "io-clock %s\n" name
   | None -> ());
  add "default-input-arrival %g\n" config.Config.default_input_arrival;
  add "default-output-required %g\n" config.Config.default_output_required;
  add "rise-fall %s\n" (if config.Config.rise_fall then "on" else "off");
  add "max-iterations %d\n" config.Config.max_transfer_iterations;
  add "partial-divisor %g\n" config.Config.partial_transfer_divisor;
  add "incremental %s\n" (if config.Config.incremental then "on" else "off");
  add "parallel-jobs %d\n" config.Config.parallel_jobs;
  add "macro %s\n" (if config.Config.macro then "on" else "off");
  add "telemetry %s\n" (if config.Config.telemetry then "on" else "off");
  List.iter
    (fun (inst, n) -> add "multicycle %s %d\n" inst n)
    config.Config.multicycle;
  List.iter
    (fun (port, timing) ->
       let edge = timing.Config.edge in
       add "%s %s clock %s %s pulse %d offset %g\n"
         (* The direction is not recorded in [Config.port_timing]; emit
            the override under 'input' — both directions parse the same
            way and the design's port direction decides how it is used. *)
         "input" port edge.Hb_clock.Edge.clock
         (match edge.Hb_clock.Edge.polarity with
          | Hb_clock.Edge.Leading -> "leading"
          | Hb_clock.Edge.Trailing -> "trailing")
         edge.Hb_clock.Edge.pulse timing.Config.offset)
    config.Config.port_overrides;
  Buffer.contents buffer
