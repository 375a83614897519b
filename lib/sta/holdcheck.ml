type violation = {
  element : int;
  label : string;
  margin : Hb_util.Time.t;
}

(* Period of the clock controlling each closure node: its waveform's own
   period, looked up once per clock edge. An endpoint's period is this
   for clocked elements and the overall period for boundaries. *)
let closure_periods (ctx : Context.t) =
  let system = ctx.Context.system and passes = ctx.Context.passes in
  let overall = system.Hb_clock.System.overall_period in
  let periods = Array.make passes.Passes.node_count overall in
  Hashtbl.iter
    (fun (edge : Hb_clock.Edge.t) _ ->
       match Hb_clock.System.find system edge.Hb_clock.Edge.clock with
       | Some w ->
         periods.(Passes.closure_node passes edge) <-
           Hb_clock.Waveform.own_period w ~overall_period:overall
       | None -> ())
    passes.Passes.edge_index;
  periods

(* Ideal path constraint D_p between an assertion at [t_a] and a closure
   at [t_c]: the time to the very next closure, a full period when they
   coincide (the closure event of an instant precedes its assertion
   event). [Hb_util.Time.modulo] and [Hb_util.Time.le _ 0.0] written out,
   so the pair loop boxes nothing. *)
let[@inline] ideal_constraint ~period ~t_a ~t_c =
  let r = Float.rem (t_c -. t_a) period in
  let r = if r < 0.0 then r +. period else r in
  let delta = if r >= period then r -. period else r in
  if delta +. Hb_util.Time.eps < 0.0
  || Float.abs delta <= Hb_util.Time.eps
  || delta = 0.0
  then period
  else delta

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
   block sweeps. An output is connected to an input exactly when the
   input's min-delay sweep reaches it with a finite delay. All scratch is
   sized once per check, and the loops run without a closure, a tuple or a
   boxed float per input or pair; what a pair still allocates is its entry
   in the grouping table. *)
let check (ctx : Context.t) =
  let elements = ctx.Context.elements and passes = ctx.Context.passes in
  let period = ctx.Context.system.Hb_clock.System.overall_period in
  let node_time = passes.Passes.node_time in
  let assertion_node = passes.Passes.element_assertion_node in
  let closure_node = passes.Passes.element_closure_node in
  let node_period = closure_periods ctx in
  let clusters = ctx.Context.table.Cluster.clusters in
  (* Each endpoint's grouping key, made once: its instance and the net it
     reads, or the element alone for a boundary. An element reads one net,
     so it is an output of one cluster at most. *)
  let keys = Array.make (Elements.count elements) (0, 0) in
  let max_nets = ref 0 and max_outputs = ref 0 in
  for c = 0 to Array.length clusters - 1 do
    let cluster = clusters.(c) in
    let outputs = cluster.Cluster.outputs in
    max_nets := Stdlib.max !max_nets (Array.length cluster.Cluster.nets);
    max_outputs := Stdlib.max !max_outputs (Array.length outputs);
    for k = 0 to Array.length outputs - 1 do
      let output = outputs.(k) in
      let e = output.Cluster.element in
      if closure_node.(e) >= 0 then begin
        let inst = (Elements.element elements e).Hb_sync.Element.inst in
        keys.(e) <-
          (if inst >= 0 then (inst, output.Cluster.net) else (-1 - e, 0))
      end
    done
  done;
  (* One min-delay row and one D_p row (by output terminal index) serve
     every input. *)
  let dmin = Array.make !max_nets Float.infinity in
  let d_p = Array.make !max_outputs 0.0 in
  let worst : (int, Hb_util.Time.t) Hashtbl.t = Hashtbl.create 32 in
  (* Group the reachable outputs so that, among the replicas of one
     multi-rate endpoint, only the replica whose closure is the very next
     one after the input's assertion carries the supplementary constraint
     — the later replicas re-latch data that is stable by design. Reset
     per input, the table walks its groups in the order a fresh one
     would. *)
  let nearest : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  (* The input being checked, read by [visit]. *)
  let outputs = ref [||] and o_x = Array.make 1 0.0 in
  let visit _ output_index =
    let output = !outputs.(output_index) in
    let id = output.Cluster.element in
    let sink = Elements.element elements id in
    let path_dmin = dmin.(output.Cluster.net) in
    let o_y = sink.Hb_sync.Element.offsets.Hb_sync.Element.closure in
    let t_y =
      if Hb_sync.Element.is_boundary sink then period
      else node_period.(closure_node.(id))
    in
    (* Constraint: dmin > D_p - T_y + O_y - O_x. *)
    let bound = d_p.(output_index) -. t_y +. o_y -. o_x.(0) in
    (* Hb_util.Time.le path_dmin bound *)
    if path_dmin +. Hb_util.Time.eps < bound
    || Float.abs (path_dmin -. bound) <= Hb_util.Time.eps
    || path_dmin = bound
    then begin
      let margin = bound -. path_dmin in
      match Hashtbl.find_opt worst id with
      | Some existing when existing >= margin -> ()
      | Some _ | None -> Hashtbl.replace worst id margin
    end
  in
  for c = 0 to Array.length clusters - 1 do
    let cluster = clusters.(c) in
    let inputs = cluster.Cluster.inputs in
    outputs := cluster.Cluster.outputs;
    for i = 0 to Array.length inputs - 1 do
      let input = inputs.(i) in
      let a_node = assertion_node.(input.Cluster.element) in
      if a_node >= 0 then begin
        min_delays cluster ~source:input.Cluster.net ~dmin;
        let source = Elements.element elements input.Cluster.element in
        o_x.(0) <- source.Hb_sync.Element.offsets.Hb_sync.Element.assertion;
        let t_a = node_time.(a_node) in
        Hashtbl.reset nearest;
        for k = 0 to Array.length cluster.Cluster.outputs - 1 do
          let output = cluster.Cluster.outputs.(k) in
          let c_node = closure_node.(output.Cluster.element) in
          if c_node >= 0 && Float.is_finite dmin.(output.Cluster.net) then begin
            let dp = ideal_constraint ~period ~t_a ~t_c:node_time.(c_node) in
            let key = keys.(output.Cluster.element) in
            match Hashtbl.find_opt nearest key with
            | Some existing when d_p.(existing) <= dp -> ()
            | Some _ | None ->
              d_p.(k) <- dp;
              Hashtbl.replace nearest key k
          end
        done;
        Hashtbl.iter visit nearest
      end
    done
  done;
  Hashtbl.fold
    (fun element margin acc ->
       { element;
         label = (Elements.element elements element).Hb_sync.Element.label;
         margin }
       :: acc)
    worst []
  |> List.sort (fun a b -> compare b.margin a.margin)
