type violation = {
  element : int;
  label : string;
  margin : Hb_util.Time.t;
}

(* Period of the clock controlling the endpoint element: its own waveform
   period for clocked elements, the overall period for boundaries. *)
let endpoint_period (ctx : Context.t) (element : Hb_sync.Element.t) =
  let overall = ctx.Context.system.Hb_clock.System.overall_period in
  match element.Hb_sync.Element.closure_edge with
  | None -> overall
  | Some edge ->
    if Hb_sync.Element.is_boundary element then overall
    else
      (match Hb_clock.System.find ctx.Context.system edge.Hb_clock.Edge.clock with
       | Some w -> Hb_clock.Waveform.own_period w ~overall_period:overall
       | None -> overall)

(* Ideal path constraint D_p between one assertion edge and one closure
   edge: the time to the very next closure, a full period when they
   coincide (the closure event of an instant precedes its assertion
   event). *)
let ideal_constraint (ctx : Context.t) ~assertion_edge ~closure_edge =
  let system = ctx.Context.system in
  let period = system.Hb_clock.System.overall_period in
  let t_a = Hb_clock.System.edge_time system assertion_edge in
  let t_c = Hb_clock.System.edge_time system closure_edge in
  let delta = Hb_util.Time.modulo (t_c -. t_a) ~period in
  if Hb_util.Time.le delta 0.0 then period else delta

(* Minimum path delay from one source net to every net of the cluster,
   written into the caller's scratch [dmin] (at least the cluster's net
   count long; entries past it are left alone). A for-loop over the arc
   SoA: no closure, no boxed float per net. *)
let min_delays (cluster : Cluster.t) ~source ~dmin =
  Array.fill dmin 0 (Array.length cluster.Cluster.nets) Float.infinity;
  dmin.(source) <- 0.0;
  let topo = cluster.Cluster.topo in
  let succ_off = cluster.Cluster.succ_off in
  let succ_arc = cluster.Cluster.succ_arc in
  let arc_dmin = cluster.Cluster.arc_dmin in
  let arc_to = cluster.Cluster.arc_to in
  for i = 0 to Array.length topo - 1 do
    let net = topo.(i) in
    let d = dmin.(net) in
    if Float.is_finite d then
      for k = succ_off.(net) to succ_off.(net + 1) - 1 do
        let j = succ_arc.(k) in
        let t = d +. arc_dmin.(j) in
        let to_net = arc_to.(j) in
        if t < dmin.(to_net) then dmin.(to_net) <- t
      done
  done

(* The supplementary constraint is inherently per input/output pair (the
   relevant closure is the next one after each input's assertion), so it is
   checked by explicit pair enumeration rather than through the merged
   block sweeps. *)
let check (ctx : Context.t) =
  let elements = ctx.Context.elements in
  let worst : (int, Hb_util.Time.t) Hashtbl.t = Hashtbl.create 32 in
  let clusters = ctx.Context.table.Cluster.clusters in
  (* One scratch row, sized to the largest cluster, serves every source. *)
  let dmin =
    Array.make
      (Array.fold_left
         (fun acc (cluster : Cluster.t) ->
            Stdlib.max acc (Array.length cluster.Cluster.nets))
         0 clusters)
      Float.infinity
  in
  Array.iter
    (fun (cluster : Cluster.t) ->
       Array.iteri
         (fun input_index (input : Cluster.terminal) ->
            let source = Elements.element elements input.Cluster.element in
            match source.Hb_sync.Element.assertion_edge with
            | None -> ()
            | Some assertion_edge ->
              min_delays cluster ~source:input.Cluster.net ~dmin;
              let o_x = Hb_sync.Element.assertion_offset source in
              (* Group the reachable outputs so that, among the replicas
                 of one multi-rate endpoint, only the replica whose
                 closure is the very next one after this input's
                 assertion carries the supplementary constraint — the
                 later replicas re-latch data that is stable by design. *)
              let nearest :
                ( (int * int, int * Hb_util.Time.t) Hashtbl.t ) =
                Hashtbl.create 8
              in
              List.iter
                (fun output_index ->
                   let output = cluster.Cluster.outputs.(output_index) in
                   let sink = Elements.element elements output.Cluster.element in
                   match sink.Hb_sync.Element.closure_edge with
                   | None -> ()
                   | Some closure_edge ->
                     if Hb_util.Time.is_finite dmin.(output.Cluster.net)
                     then begin
                       let d_p =
                         ideal_constraint ctx ~assertion_edge ~closure_edge
                       in
                       let key =
                         if sink.Hb_sync.Element.inst >= 0 then
                           (sink.Hb_sync.Element.inst, output.Cluster.net)
                         else (-1 - output.Cluster.element, 0)
                       in
                       match Hashtbl.find_opt nearest key with
                       | Some (_, existing) when existing <= d_p -> ()
                       | Some _ | None ->
                         Hashtbl.replace nearest key (output_index, d_p)
                     end)
                (Cluster.reachable_outputs cluster
                   ~input_terminal_index:input_index);
              Hashtbl.iter
                (fun _ (output_index, d_p) ->
                   let output = cluster.Cluster.outputs.(output_index) in
                   let sink = Elements.element elements output.Cluster.element in
                   let path_dmin = dmin.(output.Cluster.net) in
                   let o_y = Hb_sync.Element.closure_offset sink in
                   let t_y = endpoint_period ctx sink in
                   (* Constraint: dmin > D_p - T_y + O_y - O_x. *)
                   let bound = d_p -. t_y +. o_y -. o_x in
                   if Hb_util.Time.le path_dmin bound then begin
                     let margin = bound -. path_dmin in
                     let id = output.Cluster.element in
                     match Hashtbl.find_opt worst id with
                     | Some existing when existing >= margin -> ()
                     | Some _ | None -> Hashtbl.replace worst id margin
                   end)
                nearest)
         cluster.Cluster.inputs)
    clusters;
  Hashtbl.fold
    (fun element margin acc ->
       { element;
         label = (Elements.element elements element).Hb_sync.Element.label;
         margin }
       :: acc)
    worst []
  |> List.sort (fun a b -> compare b.margin a.margin)
