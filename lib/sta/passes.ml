type plan = {
  cluster : int;
  cuts : int list;
  assignment : int array;
}

type t = {
  system : Hb_clock.System.t;
  node_count : int;
  node_time : Hb_util.Time.t array;
  linear : Hb_util.Time.t array;
  plans : plan array;
  edge_index : (Hb_clock.Edge.t, int) Hashtbl.t;
  element_assertion_node : int array;
  element_closure_node : int array;
  endpoint_cluster : int array;
  endpoint_output : int array;
  endpoint_cut : int array;
}

exception Pass_error of string

let error fmt = Format.kasprintf (fun m -> raise (Pass_error m)) fmt

(* Shared edge-index table, rebuilt cheaply per [build]. *)
let edge_table system =
  let edges = Hb_clock.System.edges system in
  let index = Hashtbl.create (Array.length edges * 2) in
  Array.iteri (fun i (edge, _) -> Hashtbl.replace index edge i) edges;
  (edges, index)

let node_lookup index edge =
  match Hashtbl.find index edge with
  | i -> i
  | exception Not_found ->
    error "edge %s not in the clock system" (Hb_clock.Edge.to_string edge)

(* Node 2i is the closure event of edge i, node 2i+1 its assertion event;
   closure sorts first at equal instants. *)
let closure_node_of_index i = 2 * i
let assertion_node_of_index i = (2 * i) + 1

let closure_node t edge = closure_node_of_index (node_lookup t.edge_index edge)
let assertion_node t edge = assertion_node_of_index (node_lookup t.edge_index edge)

(* Every (cut, node) placement, row-major by cut: the boundary-time
   sums of the sweeps, the aggregation and the macros index it instead
   of calling [linear_time]. *)
let linear_table ~system ~node_count ~node_time =
  let period = system.Hb_clock.System.overall_period in
  Array.init (node_count * node_count) (fun k ->
      let cut = k / node_count and node = k mod node_count in
      let first = (cut + 1) mod node_count in
      let base = node_time.(node) -. node_time.(first) in
      if node < first then base +. period else base)

let linear_time t ~cut ~node = t.linear.((cut * t.node_count) + node)

(* Element id → its assertion and closure nodes, -1 without the edge:
   the one place an element's edges are looked up in [edge_index]. *)
let element_nodes ~elements ~index =
  let count = Elements.count elements in
  let assertion = Array.make count (-1) in
  let closure = Array.make count (-1) in
  for e = 0 to count - 1 do
    let element = Elements.element elements e in
    (match element.Hb_sync.Element.assertion_edge with
     | Some edge ->
       assertion.(e) <- assertion_node_of_index (node_lookup index edge)
     | None -> ());
    match element.Hb_sync.Element.closure_edge with
    | Some edge ->
      closure.(e) <- closure_node_of_index (node_lookup index edge)
    | None -> ()
  done;
  (assertion, closure)

(* Walk scratch for [Cluster.reachable_outputs], sized to the largest
   cluster [planned] admits: one pair serves every plan of a build. *)
let reach_scratch (table : Cluster.table) ~planned =
  let nets = ref 0 and outputs = ref 0 in
  Array.iteri
    (fun c (cluster : Cluster.t) ->
       if planned c then begin
         nets := Stdlib.max !nets (Array.length cluster.Cluster.nets);
         outputs := Stdlib.max !outputs (Array.length cluster.Cluster.outputs)
       end)
    table.Cluster.clusters;
  (Bytes.create !nets, Array.make !outputs 0)

let plan_for ~assertion_node ~closure_node ~node_count ~marked ~hits
    (cluster : Cluster.t) =
  (* Requirements: one per connected input/output terminal pair. *)
  let requirements = ref [] in
  let inputs = cluster.Cluster.inputs and outputs = cluster.Cluster.outputs in
  for input_index = 0 to Array.length inputs - 1 do
    let a_node = assertion_node.(inputs.(input_index).Cluster.element) in
    if a_node >= 0 then begin
      let reached =
        Cluster.reachable_outputs cluster ~input_terminal_index:input_index
          ~marked ~hits
      in
      for h = 0 to reached - 1 do
        let c_node = closure_node.(outputs.(hits.(h)).Cluster.element) in
        if c_node >= 0 then
          requirements :=
            { Hb_clock.Break.before = a_node; after = c_node }
            :: !requirements
      done
    end
  done;
  let cuts = Hb_clock.Break.solve ~node_count !requirements in
  let assignment =
    Array.map
      (fun (output : Cluster.terminal) ->
         let c_node = closure_node.(output.Cluster.element) in
         if c_node < 0 then -1
         else Hb_clock.Break.assign ~node_count ~cuts c_node)
      outputs
  in
  { cluster = cluster.Cluster.id; cuts; assignment }

(* Endpoint → (cluster, output terminal index, assigned cut), so path
   tracing never scans a cluster's output terminals. An element reads
   exactly one net, hence appears among at most one cluster's outputs;
   first-wins within a cluster mirrors the former linear scan. *)
let endpoint_maps ~elements ~table ~plans =
  let element_count = Elements.count elements in
  let endpoint_cluster = Array.make element_count (-1) in
  let endpoint_output = Array.make element_count (-1) in
  let endpoint_cut = Array.make element_count (-1) in
  let clusters = table.Cluster.clusters in
  for c = 0 to Array.length clusters - 1 do
    let id = clusters.(c).Cluster.id in
    let outputs = clusters.(c).Cluster.outputs in
    let assignment = plans.(id).assignment in
    for output_index = 0 to Array.length outputs - 1 do
      let e = outputs.(output_index).Cluster.element in
      if endpoint_cluster.(e) < 0 then begin
        endpoint_cluster.(e) <- id;
        endpoint_output.(e) <- output_index;
        endpoint_cut.(e) <- assignment.(output_index)
      end
    done
  done;
  (endpoint_cluster, endpoint_output, endpoint_cut)

let build ~system ~elements ~table =
  let edges, index = edge_table system in
  let node_count = Stdlib.max 1 (2 * Array.length edges) in
  let node_time =
    if Array.length edges = 0 then [| 0.0 |]
    else
      Array.init node_count (fun node -> snd edges.(node / 2))
  in
  let assertion_node, closure_node = element_nodes ~elements ~index in
  let marked, hits = reach_scratch table ~planned:(fun _ -> true) in
  let plans =
    Array.map
      (plan_for ~assertion_node ~closure_node ~node_count ~marked ~hits)
      table.Cluster.clusters
  in
  let endpoint_cluster, endpoint_output, endpoint_cut =
    endpoint_maps ~elements ~table ~plans
  in
  { system; node_count; node_time;
    linear = linear_table ~system ~node_count ~node_time;
    plans; edge_index = index;
    element_assertion_node = assertion_node;
    element_closure_node = closure_node;
    endpoint_cluster; endpoint_output; endpoint_cut }

let rebuild previous ~table ~kept =
  let clusters = table.Cluster.clusters in
  let rebuilt c = kept.(c) < 0 in
  let marked, hits = reach_scratch table ~planned:rebuilt in
  let plans =
    Array.init (Array.length clusters) (fun c ->
        match kept.(c) with
        | -1 ->
          plan_for ~assertion_node:previous.element_assertion_node
            ~closure_node:previous.element_closure_node
            ~node_count:previous.node_count ~marked ~hits clusters.(c)
        | o ->
          let old = previous.plans.(o) in
          if old.cluster = c then old else { old with cluster = c })
  in
  (* Only the outputs of a rebuilt or renumbered cluster can move an
     endpoint entry: an element reads one net, so it is an output of
     one cluster. The maps are copied at the first entry that moves. *)
  let endpoint_cluster = ref previous.endpoint_cluster in
  let endpoint_output = ref previous.endpoint_output in
  let endpoint_cut = ref previous.endpoint_cut in
  let copied = ref false in
  Array.iteri
    (fun c o ->
       if o <> c then begin
         let outputs = clusters.(c).Cluster.outputs in
         let assignment = plans.(c).assignment in
         for i = 0 to Array.length outputs - 1 do
           let e = outputs.(i).Cluster.element and cut = assignment.(i) in
           if
             !endpoint_cluster.(e) <> c
             || !endpoint_output.(e) <> i
             || !endpoint_cut.(e) <> cut
           then begin
             if not !copied then begin
               endpoint_cluster := Array.copy !endpoint_cluster;
               endpoint_output := Array.copy !endpoint_output;
               endpoint_cut := Array.copy !endpoint_cut;
               copied := true
             end;
             !endpoint_cluster.(e) <- c;
             !endpoint_output.(e) <- i;
             !endpoint_cut.(e) <- cut
           end
         done
       end)
    kept;
  { previous with plans;
                  endpoint_cluster = !endpoint_cluster;
                  endpoint_output = !endpoint_output;
                  endpoint_cut = !endpoint_cut }

let total_passes t =
  Array.fold_left (fun acc plan -> acc + List.length plan.cuts) 0 t.plans

type settling_report = {
  minimized_passes : int;
  naive_settling_times : int;
}

(* [f id minimized naive] for each cluster with logic, in id order.
   [seen.(node)] is the last cluster that counted assertion node [node]:
   one settling time per distinct input assertion edge. *)
let iter_settling t ~(table : Cluster.table) f =
  let seen = Array.make t.node_count (-1) in
  Array.iter
    (fun (cluster : Cluster.t) ->
       let inputs = cluster.Cluster.inputs in
       if Array.length inputs > 0
       && Array.length cluster.Cluster.outputs > 0 then begin
         let id = cluster.Cluster.id in
         let edges = ref 0 in
         for i = 0 to Array.length inputs - 1 do
           let node =
             t.element_assertion_node.(inputs.(i).Cluster.element)
           in
           if node >= 0 && seen.(node) <> id then begin
             seen.(node) <- id;
             incr edges
           end
         done;
         f id (List.length t.plans.(id).cuts) (Stdlib.max 1 !edges)
       end)
    table.Cluster.clusters

let settling_times t ~table =
  let minimized = ref 0 and naive = ref 0 in
  iter_settling t ~table (fun _ m n ->
      minimized := !minimized + m;
      naive := !naive + n);
  { minimized_passes = !minimized; naive_settling_times = !naive }

let cluster_settling_times t ~table =
  let rows = ref [] in
  iter_settling t ~table (fun id m n -> rows := (id, m, n) :: !rows);
  List.rev !rows
