type arc = {
  from_net : int;
  to_net : int;
  dmax : Hb_util.Time.t;
  dmin : Hb_util.Time.t;
  rise : Hb_util.Time.t;
  fall : Hb_util.Time.t;
  sense : [ `Positive | `Negative | `Non_unate ];
  inst : int;
}

type terminal = {
  element : int;
  net : int;
}

type t = {
  id : int;
  nets : int array;
  members : int list;
  arcs : arc array;
  (* Structure-of-arrays mirror of [arcs], indexed by arc id. The hot
     sweeps in Block and Macro read these flat arrays instead of chasing
     boxed arc records; every arc mutation must write both views. *)
  arc_from : int array;
  arc_to : int array;
  arc_dmax : float array;
  arc_dmin : float array;
  succ_off : int array;
  succ_arc : int array;
  pred_off : int array;
  pred_arc : int array;
  topo : int array;
  inputs : terminal array;
  outputs : terminal array;
}

let soa_of_arcs (arcs : arc array) =
  let m = Array.length arcs in
  let arc_from = Array.make m 0 in
  let arc_to = Array.make m 0 in
  let arc_dmax = Array.make m 0.0 in
  let arc_dmin = Array.make m 0.0 in
  for i = 0 to m - 1 do
    let arc = arcs.(i) in
    arc_from.(i) <- arc.from_net;
    arc_to.(i) <- arc.to_net;
    arc_dmax.(i) <- arc.dmax;
    arc_dmin.(i) <- arc.dmin
  done;
  (arc_from, arc_to, arc_dmax, arc_dmin)

let iter_succ cluster net ~f =
  for k = cluster.succ_off.(net) to cluster.succ_off.(net + 1) - 1 do
    f cluster.succ_arc.(k)
  done

type table = {
  clusters : t array;
  cluster_of_net : int array;
  local_of_net : int array;
}

exception Cycle_error of string

(* Union-find over global net ids: the root of [i]'s set, with the path
   from [i] compressed onto it. Two loops and no local closure, so a find
   allocates nothing. *)
let find parent i =
  let root = ref i in
  while parent.(!root) <> !root do
    root := parent.(!root)
  done;
  let r = !root in
  let i = ref i in
  while parent.(!i) <> r do
    let next = parent.(!i) in
    parent.(!i) <- r;
    i := next
  done;
  r

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(ra) <- rb

(* Union every net of one instance's connection list with [first]. *)
let rec union_all parent first = function
  | [] -> ()
  | (_, net) :: rest ->
    union parent first net;
    union_all parent first rest

let extract ~design ~elements ?(delays = Delays.lumped) ?reuse () =
  let net_count = Hb_netlist.Design.net_count design in
  let parent = Array.init net_count (fun i -> i) in
  (* Union all nets touching the same combinational instance. The
     instance lists built here and for the arcs below, like the root
     table, live long enough to be promoted, and promoted words pace the
     major GC: walking instance ids instead left more of a parse's
     garbage uncollected and raised the cold scale100k peak RSS
     (EXPERIMENTS.md P7). *)
  List.iter
    (fun inst ->
       let connections =
         (Hb_netlist.Design.instance design inst).Hb_netlist.Design.connections
       in
       match connections with
       | [] -> ()
       | (_, first) :: rest -> union_all parent first rest)
    (Hb_netlist.Design.comb_instances design);
  (* Assign dense cluster ids to roots. *)
  let cluster_id_of_root = Hashtbl.create 64 in
  let cluster_of_net = Array.make net_count 0 in
  let cluster_count = ref 0 in
  for net = 0 to net_count - 1 do
    let root = find parent net in
    let id =
      match Hashtbl.find cluster_id_of_root root with
      | id -> id
      | exception Not_found ->
        let id = !cluster_count in
        incr cluster_count;
        Hashtbl.add cluster_id_of_root root id;
        id
    in
    cluster_of_net.(net) <- id
  done;
  (* Local net indices per cluster, in global net order. *)
  let local_of_net = Array.make net_count 0 in
  let sizes = Array.make !cluster_count 0 in
  for net = 0 to net_count - 1 do
    let c = cluster_of_net.(net) in
    local_of_net.(net) <- sizes.(c);
    sizes.(c) <- sizes.(c) + 1
  done;
  let nets = Array.init !cluster_count (fun c -> Array.make sizes.(c) 0) in
  for net = 0 to net_count - 1 do
    nets.(cluster_of_net.(net)).(local_of_net.(net)) <- net
  done;
  (* Reuse pass: a cluster whose representative net maps to a keepable
     old cluster with an identical net array is the same subgraph — the
     union-find above ran on the whole design, so equal net sets imply
     equal members, arcs, and terminals. Sharing the old record (only
     the dense id may differ) skips arc delay evaluation, CSR
     construction, and the topological sort for untouched clusters,
     which is almost all of them under an ECO batch. *)
  let reused = Array.make !cluster_count None in
  (match reuse with
   | None -> ()
   | Some (old_table, keep) ->
     let old_net_count = Array.length old_table.cluster_of_net in
     for c = 0 to !cluster_count - 1 do
       let rep = nets.(c).(0) in
       if rep < old_net_count then begin
         let oid = old_table.cluster_of_net.(rep) in
         if keep oid then begin
           let old = old_table.clusters.(oid) in
           if old.nets = nets.(c) then
             reused.(c) <- Some (if old.id = c then old else { old with id = c })
         end
       end
     done);
  let fresh c = reused.(c) = None in
  (* Members and arcs. *)
  let members = Array.make !cluster_count [] in
  let rev_arcs = Array.make !cluster_count [] in
  List.iter
    (fun inst ->
       let record = Hb_netlist.Design.instance design inst in
       let cell = record.Hb_netlist.Design.cell in
       let cluster =
         match record.Hb_netlist.Design.connections with
         | (_, net) :: _ -> cluster_of_net.(net)
         | [] -> -1
       in
       if cluster >= 0 && fresh cluster then begin
         members.(cluster) <- inst :: members.(cluster);
         let sense =
           match cell.Hb_cell.Cell.kind with
           | Hb_cell.Kind.Comb comb -> Hb_cell.Kind.unate_sense comb
           | Hb_cell.Kind.Sync _ -> `Non_unate
         in
         List.iter
           (fun out_pin ->
              let out_name = out_pin.Hb_cell.Cell.pin_name in
              match Hb_netlist.Design.net_of_pin design ~inst ~pin:out_name with
              | None -> ()
              | Some out_net ->
                List.iter
                  (fun (cell_arc : Hb_cell.Cell.timing_arc) ->
                     match
                       Hb_netlist.Design.net_of_pin design ~inst
                         ~pin:cell_arc.Hb_cell.Cell.from_pin
                     with
                     | None -> ()
                     | Some in_net ->
                       let rise, fall =
                         delays.Delays.evaluate ~design ~inst ~arc:cell_arc
                           ~out_net
                       in
                       rev_arcs.(cluster) <-
                         { from_net = local_of_net.(in_net);
                           to_net = local_of_net.(out_net);
                           dmax = Hb_util.Time.max rise fall;
                           dmin = Hb_util.Time.min rise fall;
                           rise;
                           fall;
                           sense;
                           inst;
                         }
                         :: rev_arcs.(cluster))
                  (Hb_cell.Cell.arcs_to cell ~output:out_name))
           (Hb_cell.Cell.output_pins cell)
       end)
    (Hb_netlist.Design.comb_instances design);
  (* Terminals from the element table. *)
  let rev_inputs = Array.make !cluster_count [] in
  let rev_outputs = Array.make !cluster_count [] in
  let rec add_inputs e = function
    | [] -> ()
    | net :: rest ->
      let c = cluster_of_net.(net) in
      if fresh c then
        rev_inputs.(c) <-
          { element = e; net = local_of_net.(net) } :: rev_inputs.(c);
      add_inputs e rest
  in
  for e = 0 to Elements.count elements - 1 do
    add_inputs e elements.Elements.drives.(e);
    (match elements.Elements.reads.(e) with
     | Some net ->
       if fresh cluster_of_net.(net) then
         rev_outputs.(cluster_of_net.(net)) <-
           { element = e; net = local_of_net.(net) }
           :: rev_outputs.(cluster_of_net.(net))
     | None -> ())
  done;
  (* Flat compressed-sparse-row adjacency: [off] has [n + 1] entries and
     arc indices adjacent to local net [v] sit in [idx] at
     [off.(v) .. off.(v + 1) - 1]. Buckets are filled from the back so
     the within-net order is descending arc index — the same order the
     former cons-built adjacency lists were traversed in. *)
  let csr ~n ~(arcs : arc array) ~key =
    let m = Array.length arcs in
    let off = Array.make (n + 1) 0 in
    Array.iter (fun arc -> off.(key arc + 1) <- off.(key arc + 1) + 1) arcs;
    for v = 1 to n do
      off.(v) <- off.(v) + off.(v - 1)
    done;
    let idx = Array.make m 0 in
    let cursor = Array.sub off 0 (Stdlib.max n 1) in
    for i = m - 1 downto 0 do
      let v = key arcs.(i) in
      idx.(cursor.(v)) <- i;
      cursor.(v) <- cursor.(v) + 1
    done;
    (off, idx)
  in
  let clusters =
    Array.init !cluster_count (fun c ->
        match reused.(c) with
        | Some cluster -> cluster
        | None ->
        let arcs = Array.of_list (List.rev rev_arcs.(c)) in
        let n = sizes.(c) in
        let succ_off, succ_arc = csr ~n ~arcs ~key:(fun arc -> arc.from_net) in
        let pred_off, pred_arc = csr ~n ~arcs ~key:(fun arc -> arc.to_net) in
        let topo =
          match
            Hb_util.Topo.sort ~nodes:n
              ~successors:(fun v ->
                  List.init (succ_off.(v + 1) - succ_off.(v)) (fun k ->
                      arcs.(succ_arc.(succ_off.(v) + k)).to_net))
          with
          | Hb_util.Topo.Sorted order -> order
          | Hb_util.Topo.Cycle cycle ->
            let path =
              String.concat " -> "
                (List.map
                   (fun local ->
                      (Hb_netlist.Design.net design nets.(c).(local))
                        .Hb_netlist.Design.net_name)
                   cycle)
            in
            raise
              (Cycle_error
                 (Printf.sprintf
                    "combinational cycle in cluster %d: %s" c path))
        in
        let arc_from, arc_to, arc_dmax, arc_dmin = soa_of_arcs arcs in
        { id = c;
          nets = nets.(c);
          members = List.rev members.(c);
          arcs;
          arc_from;
          arc_to;
          arc_dmax;
          arc_dmin;
          succ_off;
          succ_arc;
          pred_off;
          pred_arc;
          topo;
          inputs = Array.of_list (List.rev rev_inputs.(c));
          outputs = Array.of_list (List.rev rev_outputs.(c));
        })
  in
  { clusters; cluster_of_net; local_of_net }

let refresh_arc ~caller ~design ~delays (cluster : t) arc =
  if arc.inst < 0 || arc.inst >= Hb_netlist.Design.instance_count design
  then invalid_arg (Printf.sprintf "Cluster.%s: instance out of range" caller);
  let record = Hb_netlist.Design.instance design arc.inst in
  let cell = record.Hb_netlist.Design.cell in
  let from_global = cluster.nets.(arc.from_net) in
  let to_global = cluster.nets.(arc.to_net) in
  (* Every timing arc of the instance joining the same net pair;
     with several (a net feeding two pins) take the worst — equal
     to extraction's effect of emitting one graph arc per pin. *)
  let rise = ref Hb_util.Time.neg_infinity in
  let fall = ref Hb_util.Time.neg_infinity in
  List.iter
    (fun out_pin ->
       if
         Hb_netlist.Design.net_of_pin design ~inst:arc.inst
           ~pin:out_pin.Hb_cell.Cell.pin_name
         = Some to_global
       then
         List.iter
           (fun (cell_arc : Hb_cell.Cell.timing_arc) ->
              if
                Hb_netlist.Design.net_of_pin design ~inst:arc.inst
                  ~pin:cell_arc.Hb_cell.Cell.from_pin
                = Some from_global
              then begin
                let r, f =
                  delays.Delays.evaluate ~design ~inst:arc.inst
                    ~arc:cell_arc ~out_net:to_global
                in
                if r > !rise then rise := r;
                if f > !fall then fall := f
              end)
           (Hb_cell.Cell.arcs_to cell
              ~output:out_pin.Hb_cell.Cell.pin_name))
    (Hb_cell.Cell.output_pins cell);
  if not (Hb_util.Time.is_finite !rise && Hb_util.Time.is_finite !fall)
  then
    invalid_arg
      (Printf.sprintf "Cluster.%s: arc of %s no longer present" caller
         record.Hb_netlist.Design.inst_name);
  { arc with
    rise = !rise;
    fall = !fall;
    dmax = Hb_util.Time.max !rise !fall;
    dmin = Hb_util.Time.min !rise !fall;
  }

let refresh_delays table ~design ?(delays = Delays.lumped) () =
  let refresh_cluster (cluster : t) =
    let arcs =
      Array.map
        (refresh_arc ~caller:"refresh_delays" ~design ~delays cluster)
        cluster.arcs
    in
    let arc_from, arc_to, arc_dmax, arc_dmin = soa_of_arcs arcs in
    { cluster with arcs; arc_from; arc_to; arc_dmax; arc_dmin }
  in
  if Array.length table.cluster_of_net <> Hb_netlist.Design.net_count design
  then invalid_arg "Cluster.refresh_delays: net count mismatch";
  { table with clusters = Array.map refresh_cluster table.clusters }

let refresh_instance_delays table ~design ~insts ?(delays = Delays.lumped) () =
  if Array.length table.cluster_of_net <> Hb_netlist.Design.net_count design
  then invalid_arg "Cluster.refresh_instance_delays: net count mismatch";
  let wanted = Hashtbl.create (List.length insts * 2 + 1) in
  List.iter (fun inst -> Hashtbl.replace wanted inst ()) insts;
  let touched = ref [] in
  Array.iter
    (fun (cluster : t) ->
       let hit = ref false in
       Array.iteri
         (fun i arc ->
            if Hashtbl.mem wanted arc.inst then begin
              let fresh =
                refresh_arc ~caller:"refresh_instance_delays" ~design ~delays
                  cluster arc
              in
              cluster.arcs.(i) <- fresh;
              cluster.arc_dmax.(i) <- fresh.dmax;
              cluster.arc_dmin.(i) <- fresh.dmin;
              hit := true
            end)
         cluster.arcs;
       if !hit then touched := cluster.id :: !touched)
    table.clusters;
  List.rev !touched

(* Depth-first marking of every net reachable from [net]. *)
let rec mark_from cluster marked net =
  if Bytes.get marked net = '\000' then begin
    Bytes.set marked net '\001';
    for k = cluster.succ_off.(net) to cluster.succ_off.(net + 1) - 1 do
      mark_from cluster marked cluster.arc_to.(cluster.succ_arc.(k))
    done
  end

let reachable_outputs cluster ~input_terminal_index ~marked ~hits =
  Bytes.fill marked 0 (Array.length cluster.nets) '\000';
  mark_from cluster marked cluster.inputs.(input_terminal_index).net;
  let count = ref 0 in
  for i = 0 to Array.length cluster.outputs - 1 do
    if Bytes.get marked cluster.outputs.(i).net <> '\000' then begin
      hits.(!count) <- i;
      incr count
    end
  done;
  !count
