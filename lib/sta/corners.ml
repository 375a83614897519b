type corner = {
  corner_name : string;
  delay_scale : float;
}

let typical =
  [ { corner_name = "fast"; delay_scale = 0.8 };
    { corner_name = "nominal"; delay_scale = 1.0 };
    { corner_name = "slow"; delay_scale = 1.25 };
  ]

type result = {
  corner : corner;
  status : Algorithm1.status;
  worst_slack : Hb_util.Time.t;
  hold_violations : int;
}

type report = {
  results : result list;
  all_corners_met : bool;
  any_hold_violation : bool;
}

(* A corner only rescales delays; it changes no live analysis, so each
   runs as one analysis of its own over a provider that scales [base]. *)
let analyse ~design ~system ?config ?(base = Delays.lumped)
    ?(corners = typical) () =
  let run corner =
    let scale = corner.delay_scale in
    if not (scale > 0.0) then
      invalid_arg
        (Printf.sprintf "Corners.analyse: %s: scale must be positive"
           corner.corner_name);
    let delays =
      { Delays.name = Printf.sprintf "%s x%g" base.Delays.name scale;
        evaluate =
          (fun ~design ~inst ~arc ~out_net ->
             let rise, fall = base.Delays.evaluate ~design ~inst ~arc ~out_net in
             (rise *. scale, fall *. scale));
      }
    in
    let report =
      Engine.analyse ~design ~system ?config ~delays
        ~generate_constraints:false ~check_hold:true ()
    in
    let outcome = report.Engine.outcome in
    { corner;
      status = outcome.Algorithm1.status;
      worst_slack = outcome.Algorithm1.final.Slacks.worst;
      hold_violations = List.length report.Engine.hold_violations;
    }
  in
  let results = List.map run corners in
  { results;
    all_corners_met =
      List.for_all (fun r -> r.status = Algorithm1.Meets_timing) results;
    any_hold_violation = List.exists (fun r -> r.hold_violations > 0) results;
  }

let to_table report =
  let rows =
    List.map
      (fun r ->
         [ r.corner.corner_name;
           Printf.sprintf "%.2f" r.corner.delay_scale;
           Printf.sprintf "%.3f" r.worst_slack;
           (match r.status with
            | Algorithm1.Meets_timing -> "ok"
            | Algorithm1.Slow_paths -> "TOO SLOW");
           string_of_int r.hold_violations ])
      report.results
  in
  Hb_util.Table.render
    ~header:[ "corner"; "scale"; "worst slack"; "verdict"; "hold violations" ]
    ~align:Hb_util.Table.[ Left; Right; Right; Left; Right ]
    rows
