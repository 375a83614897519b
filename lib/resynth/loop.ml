type step = {
  iteration : int;
  worst_slack : Hb_util.Time.t;
  total_negative_slack : Hb_util.Time.t;
  slow_endpoints : int;
  delta_worst_slack : Hb_util.Time.t;
  area : float;
  changed : Speedup.change list;
}

type result = {
  design : Hb_netlist.Design.t;
  met_timing : bool;
  iterations : int;
  history : step list;
  final_worst_slack : Hb_util.Time.t;
  final_total_negative_slack : Hb_util.Time.t;
  final_slow_endpoints : int;
  final_area : float;
}

let qor (slacks : Hb_sta.Slacks.t) =
  let tns = ref 0.0 and slow = ref 0 in
  Array.iter
    (fun s ->
      if Hb_util.Time.is_finite s && s < 0.0 then begin
        tns := !tns +. s;
        incr slow
      end)
    slacks.Hb_sta.Slacks.element_input_slack;
  (!tns, !slow)

(* Combinational instances on the worst critical paths, worst first. *)
let candidates paths =
  let seen = Hashtbl.create 16 in
  let ordered = ref [] in
  List.iter
    (fun (path : Hb_sta.Paths.path) ->
       if Hb_util.Time.le path.Hb_sta.Paths.slack 0.0 then
         List.iter
           (fun (hop : Hb_sta.Paths.hop) ->
              match hop.Hb_sta.Paths.via with
              | Some inst when not (Hashtbl.mem seen inst) ->
                Hashtbl.replace seen inst ();
                ordered := inst :: !ordered
              | Some _ | None -> ())
           path.Hb_sta.Paths.hops)
    paths;
  List.rev !ordered

let optimise ~design ~system ~library ?config ?(max_iterations = 50) () =
  (* One persistent session for the whole loop: preprocessing runs once,
     and each upsizing round commits as a [Resize_gate] edit batch that
     rebuilds only the touched clusters (the decomposition and pass plans
     elsewhere are carried — only cell variants change between
     iterations). The session's design is the loop's design. *)
  let rec iterate session iteration previous_worst history =
    let design = (Hb_sta.Session.context session).Hb_sta.Context.design in
    let report =
      Hb_sta.Session.analyse ~generate_constraints:false ~check_hold:false
        session
    in
    let outcome = report.Hb_sta.Session.outcome in
    let slacks = outcome.Hb_sta.Algorithm1.final in
    let worst = slacks.Hb_sta.Slacks.worst in
    let tns, slow = qor slacks in
    let delta =
      match previous_worst with
      | None -> 0.0
      | Some p when Hb_util.Time.is_finite p && Hb_util.Time.is_finite worst ->
        worst -. p
      | Some _ -> 0.0
    in
    let area = (Hb_netlist.Stats.compute design).Hb_netlist.Stats.area in
    let finish met_timing =
      Hb_sta.Session.close session;
      { design;
        met_timing;
        iterations = iteration;
        history = List.rev history;
        final_worst_slack = worst;
        final_total_negative_slack = tns;
        final_slow_endpoints = slow;
        final_area = area;
      }
    in
    match outcome.Hb_sta.Algorithm1.status with
    | Hb_sta.Algorithm1.Meets_timing -> finish true
    | Hb_sta.Algorithm1.Slow_paths ->
      if iteration >= max_iterations then finish false
      else begin
        let paths = Hb_sta.Session.worst_paths session ~limit:5 in
        match
          Speedup.upsize_instances design ~library
            ~instances:(candidates paths)
        with
        | [] -> finish false
        | changed ->
          let step =
            { iteration;
              worst_slack = worst;
              total_negative_slack = tns;
              slow_endpoints = slow;
              delta_worst_slack = delta;
              area;
              changed }
          in
          (* The QoR journal: one line per iteration of Algorithm 3. *)
          if Hb_util.Log.on Hb_util.Log.Info then
            Hb_util.Log.info "resynth.iteration"
              [ ("iteration", Hb_util.Log.Int iteration);
                ("worst_slack", Hb_util.Log.Float worst);
                ("total_negative_slack", Hb_util.Log.Float tns);
                ("slow_endpoints", Hb_util.Log.Int slow);
                ("delta_worst_slack", Hb_util.Log.Float delta);
                ("area", Hb_util.Log.Float area);
                ( "module",
                  Hb_util.Log.String
                    (match changed with
                     | c :: _ -> c.Speedup.inst_name
                     | [] -> "") );
                ("changes", Hb_util.Log.Int (List.length changed));
              ];
          let cell (c : Speedup.change) =
            Hb_cell.Library.find_exn library c.Speedup.new_cell
          in
          (* Commit the round as a structural edit batch: only the
             clusters carrying resized gates are re-extracted, the rest
             keep their graphs, plans and cached slacks. The ECO path
             refuses a gate next to a control cone; then the round is
             made on the design itself and a fresh session analyses
             it. *)
          let session =
            match
              Hb_sta.Session.apply_r session
                (List.map
                   (fun (c : Speedup.change) ->
                      Hb_sta.Edit.Resize_gate
                        { instance = c.Speedup.inst_name; cell = cell c })
                   changed)
            with
            | Ok _ -> session
            | Error _ ->
              let design =
                List.fold_left
                  (fun design (c : Speedup.change) ->
                     Hb_netlist.Structural.resize_gate design
                       ~inst:c.Speedup.inst ~cell:(cell c))
                  design changed
              in
              Hb_sta.Session.close session;
              Hb_sta.Session.create ~design ~system ?config ()
          in
          iterate session (iteration + 1) (Some worst) (step :: history)
      end
  in
  iterate (Hb_sta.Session.create ~design ~system ?config ()) 0 None []
