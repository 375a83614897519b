type terminal = {
  element : int;
  net : int;
}

(* Arcs are held as flat arrays indexed by arc id, one per attribute: a
   float array stores its floats unboxed, so an arc costs eight words and
   no heap block of its own, and the sweeps in Block, Macro, Holdcheck
   and Paths read them without chasing a pointer. *)
type t = {
  id : int;
  nets : int array;
  members : int list;
  arc_from : int array;
  arc_to : int array;
  arc_dmax : float array;
  arc_dmin : float array;
  arc_rise : float array;
  arc_fall : float array;
  arc_sense : [ `Positive | `Negative | `Non_unate ] array;
  arc_inst : int array;
  succ_off : int array;
  succ_arc : int array;
  pred_off : int array;
  pred_arc : int array;
  topo : int array;
  inputs : terminal array;
  outputs : terminal array;
}

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

(* The net [pin] is on in an instance's connection list, or [-1]:
   [Design.net_of_pin] without its option. *)
let rec pin_net pin = function
  | [] -> -1
  | (p, net) :: rest -> if String.equal p pin then net else pin_net pin rest

(* Apply [f inst arc in_net out_net] (global nets) to every graph arc
   instance [inst] contributes, in extraction order: each connected
   output pin in the cell's pin order, then each of the cell's timing
   arcs into that pin whose input pin is connected, in the cell's arc
   order. The walk reads the cell's own lists and allocates nothing. *)
let rec arcs_into f inst connections out_pin out_net = function
  | [] -> ()
  | (arc : Hb_cell.Cell.timing_arc) :: rest ->
    if String.equal arc.Hb_cell.Cell.to_pin out_pin then begin
      let in_net = pin_net arc.Hb_cell.Cell.from_pin connections in
      if in_net >= 0 then f inst arc in_net out_net
    end;
    arcs_into f inst connections out_pin out_net rest

let rec outputs_of f inst connections timing_arcs = function
  | [] -> ()
  | (pin : Hb_cell.Cell.pin) :: rest ->
    (match pin.Hb_cell.Cell.role with
     | Hb_cell.Cell.Data_out ->
       let out_net = pin_net pin.Hb_cell.Cell.pin_name connections in
       if out_net >= 0 then
         arcs_into f inst connections pin.Hb_cell.Cell.pin_name out_net
           timing_arcs
     | Hb_cell.Cell.Data_in | Hb_cell.Cell.Control_in -> ());
    outputs_of f inst connections timing_arcs rest

let iter_instance_arcs f inst (record : Hb_netlist.Design.instance) =
  let cell = record.Hb_netlist.Design.cell in
  match cell.Hb_cell.Cell.timing with
  | Hb_cell.Cell.Sync_timing _ -> ()
  | Hb_cell.Cell.Comb_timing timing_arcs ->
    outputs_of f inst record.Hb_netlist.Design.connections timing_arcs
      cell.Hb_cell.Cell.pins

(* Evaluate graph arc [j] through [delays] and write its rise, fall, dmax
   and dmin at index [j]: the one place an arc's delays are computed, for
   {!extract} and for {!refresh_instance_delays} alike. Inlined, so
   extraction's per-arc loop makes no extra call. *)
let[@inline] store_delays delays ~design ~inst ~arc ~out_net ~rise:rise_a
    ~fall:fall_a ~dmax ~dmin j =
  let rise, fall = delays.Delays.evaluate ~design ~inst ~arc ~out_net in
  rise_a.(j) <- rise;
  fall_a.(j) <- fall;
  (* Hb_util.Time.max and min, spelled out: a call across modules would
     box both results under [-opaque]. *)
  dmax.(j) <- (if rise >= fall then rise else fall);
  dmin.(j) <- (if rise <= fall then rise else fall)

let cell_sense (cell : Hb_cell.Cell.t) =
  match cell.Hb_cell.Cell.kind with
  | Hb_cell.Kind.Comb comb -> Hb_cell.Kind.unate_sense comb
  | Hb_cell.Kind.Sync _ -> `Non_unate

(* The arc arrays of one cluster while {!extract} fills them. *)
type arc_arrays = {
  a_from : int array;
  a_to : int array;
  a_dmax : float array;
  a_dmin : float array;
  a_rise : float array;
  a_fall : float array;
  a_sense : [ `Positive | `Negative | `Non_unate ] array;
  a_inst : int array;
}

let arc_arrays m =
  { a_from = Array.make m 0;
    a_to = Array.make m 0;
    a_dmax = Array.make m 0.0;
    a_dmin = Array.make m 0.0;
    a_rise = Array.make m 0.0;
    a_fall = Array.make m 0.0;
    a_sense = Array.make m `Non_unate;
    a_inst = Array.make m 0;
  }

(* The cluster of an instance's first connection, or [-1]. *)
let instance_cluster cluster_of_net (record : Hb_netlist.Design.instance) =
  match record.Hb_netlist.Design.connections with
  | (_, net) :: _ -> cluster_of_net.(net)
  | [] -> -1

(* Flat compressed-sparse-row adjacency over [n] local nets, keyed by
   [key] (an arc's source or sink net): [off] has [n + 1] entries and the
   arc ids adjacent to local net [v] sit in [idx] at
   [off.(v) .. off.(v + 1) - 1]. Buckets are filled from the back, so
   within a net the order is descending arc id — the order the former
   cons-built adjacency lists were traversed in. *)
let csr ~n ~key =
  let m = Array.length key in
  let off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    off.(key.(i) + 1) <- off.(key.(i) + 1) + 1
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let idx = Array.make m 0 in
  let cursor = Array.sub off 0 (Stdlib.max n 1) in
  for i = m - 1 downto 0 do
    let v = key.(i) in
    idx.(cursor.(v)) <- i;
    cursor.(v) <- cursor.(v) + 1
  done;
  (off, idx)

(* The position of [x] in the ascending array [a], or [-1]. *)
let position a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length a && a.(!lo) = x then !lo else -1

(* The records of the clusters [ids] (ascending), given the net maps of
   the table they join: slot [s] of the result is cluster [ids.(s)],
   whose nets, ascending, are [nets.(s)]. [instances] lists, ascending,
   the combinational instances to walk: every member of these clusters,
   and any other instance is skipped. [terminal_elements f] applies [f],
   in ascending order, to every element with a net in them. The one
   builder for {!extract}, which builds every cluster, and {!update},
   which builds those an edit touched: members and arcs in two walks
   over the instances (the first counts each cluster's arcs, the second
   writes every arc straight into its cluster's arrays, with
   [arc_count] reset to serve as the write cursor), then terminals, CSR
   and topological order per cluster. Every arc of an instance lies in
   the instance's cluster, the cluster of its output net. *)
let build ~design ~elements ~delays ~cluster_of_net ~local_of_net ~ids ~nets
    ~instances ~terminal_elements =
  let count = Array.length ids in
  (* When [ids] is 0 .. count - 1, as in extraction, slot and id agree. *)
  let dense = count = 0 || ids.(count - 1) = count - 1 in
  let slot c = if dense then (if c < count then c else -1) else position ids c in
  let members = Array.make count [] in
  let arc_count = Array.make count 0 in
  (* The slot of the instance being walked: all its arcs go there. *)
  let current = ref 0 in
  let count_arc _ _ _ _ = arc_count.(!current) <- arc_count.(!current) + 1 in
  List.iter
    (fun inst ->
       let record = Hb_netlist.Design.instance design inst in
       let c = instance_cluster cluster_of_net record in
       let s = if c >= 0 then slot c else -1 in
       if s >= 0 then begin
         members.(s) <- inst :: members.(s);
         current := s;
         iter_instance_arcs count_arc inst record
       end)
    instances;
  let arcs =
    Array.init count (fun s ->
        let a = arc_arrays arc_count.(s) in
        arc_count.(s) <- 0;
        a)
  in
  let write_arc inst arc in_net out_net =
    let s = !current in
    let a = arcs.(s) and j = arc_count.(s) in
    a.a_from.(j) <- local_of_net.(in_net);
    a.a_to.(j) <- local_of_net.(out_net);
    store_delays delays ~design ~inst ~arc ~out_net ~rise:a.a_rise
      ~fall:a.a_fall ~dmax:a.a_dmax ~dmin:a.a_dmin j;
    a.a_sense.(j) <-
      cell_sense (Hb_netlist.Design.instance design inst).Hb_netlist.Design.cell;
    a.a_inst.(j) <- inst;
    arc_count.(s) <- j + 1
  in
  List.iter
    (fun inst ->
       let record = Hb_netlist.Design.instance design inst in
       let c = instance_cluster cluster_of_net record in
       let s = if c >= 0 then slot c else -1 in
       if s >= 0 then begin
         current := s;
         iter_instance_arcs write_arc inst record
       end)
    instances;
  (* Terminals from the element table. *)
  let rev_inputs = Array.make count [] in
  let rev_outputs = Array.make count [] in
  let rec add_inputs e = function
    | [] -> ()
    | net :: rest ->
      let s = slot cluster_of_net.(net) in
      if s >= 0 then
        rev_inputs.(s) <-
          { element = e; net = local_of_net.(net) } :: rev_inputs.(s);
      add_inputs e rest
  in
  terminal_elements (fun e ->
      add_inputs e elements.Elements.drives.(e);
      match elements.Elements.reads.(e) with
      | Some net ->
        let s = slot cluster_of_net.(net) in
        if s >= 0 then
          rev_outputs.(s) <-
            { element = e; net = local_of_net.(net) } :: rev_outputs.(s)
      | None -> ());
  Array.init count (fun s ->
      let c = ids.(s) in
      let n = Array.length nets.(s) in
      let a = arcs.(s) in
      let arc_to = a.a_to in
      let succ_off, succ_arc = csr ~n ~key:a.a_from in
      let pred_off, pred_arc = csr ~n ~key:arc_to in
      let topo =
        match
          Hb_util.Topo.sort ~nodes:n
            ~successors:(fun v ->
                List.init (succ_off.(v + 1) - succ_off.(v)) (fun k ->
                    arc_to.(succ_arc.(succ_off.(v) + k))))
        with
        | Hb_util.Topo.Sorted order -> order
        | Hb_util.Topo.Cycle cycle ->
          let path =
            String.concat " -> "
              (List.map
                 (fun local ->
                    (Hb_netlist.Design.net design nets.(s).(local))
                      .Hb_netlist.Design.net_name)
                 cycle)
          in
          raise
            (Cycle_error
               (Printf.sprintf
                  "combinational cycle in cluster %d: %s" c path))
      in
      { id = c;
        nets = nets.(s);
        members = List.rev members.(s);
        arc_from = a.a_from;
        arc_to;
        arc_dmax = a.a_dmax;
        arc_dmin = a.a_dmin;
        arc_rise = a.a_rise;
        arc_fall = a.a_fall;
        arc_sense = a.a_sense;
        arc_inst = a.a_inst;
        succ_off;
        succ_arc;
        pred_off;
        pred_arc;
        topo;
        inputs = Array.of_list (List.rev rev_inputs.(s));
        outputs = Array.of_list (List.rev rev_outputs.(s));
      })

let extract ~design ~elements ?(delays = Delays.lumped) () =
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
  let clusters =
    build ~design ~elements ~delays ~cluster_of_net ~local_of_net
      ~ids:(Array.init !cluster_count Fun.id) ~nets
      ~instances:(Hb_netlist.Design.comb_instances design)
      ~terminal_elements:(fun f ->
          for e = 0 to Elements.count elements - 1 do
            f e
          done)
  in
  { clusters; cluster_of_net; local_of_net }

let update table ~design ~elements ~touched ?(delays = Delays.lumped) () =
  let fail m = invalid_arg ("Cluster.update: " ^ m) in
  let old = table.clusters in
  let old_count = Array.length old in
  let old_nets = Array.length table.cluster_of_net in
  let net_count = Hb_netlist.Design.net_count design in
  if net_count < old_nets then fail "the design has fewer nets";
  let touched = Array.of_list (List.sort_uniq Int.compare touched) in
  Array.iter
    (fun c -> if c < 0 || c >= old_count then fail "cluster id out of range")
    touched;
  (* The region: the touched clusters' nets and the appended ones,
     ascending. Region nets are named by their position in it. *)
  let region =
    Array.concat
      (Array.init (net_count - old_nets) (fun k -> old_nets + k)
       :: Array.to_list (Array.map (fun c -> old.(c).nets) touched))
  in
  Array.sort Int.compare region;
  let size = Array.length region in
  let at net =
    let r = position region net in
    if r < 0 then fail "an edited instance reaches an untouched cluster";
    r
  in
  (* The combinational instances with a pin on a region net: every
     member of a touched cluster and every appended instance. *)
  let instances = ref [] in
  let add_pin = function
    | Hb_netlist.Design.Pin { inst; pin = _ } ->
      if
        Hb_cell.Kind.is_comb
          (Hb_netlist.Design.instance design inst).Hb_netlist.Design.cell
            .Hb_cell.Cell.kind
      then instances := inst :: !instances
    | Hb_netlist.Design.Port _ -> ()
  in
  Array.iter
    (fun net ->
       let record = Hb_netlist.Design.net design net in
       List.iter add_pin record.Hb_netlist.Design.drivers;
       List.iter add_pin record.Hb_netlist.Design.loads)
    region;
  let instances = List.sort_uniq Int.compare !instances in
  (* Union-find over region positions, as [extract] runs it over the
     whole design. *)
  let parent = Array.init size Fun.id in
  List.iter
    (fun inst ->
       match
         (Hb_netlist.Design.instance design inst).Hb_netlist.Design.connections
       with
       | [] -> ()
       | (_, first) :: rest ->
         let first = at first in
         List.iter (fun (_, net) -> union parent first (at net)) rest)
    instances;
  (* Region clusters, numbered in the order of their lowest nets; local
     indices in net order. *)
  let of_root = Array.make size (-1) in
  let region_cluster = Array.make size 0 in
  let fresh = ref 0 in
  for r = 0 to size - 1 do
    let root = find parent r in
    if of_root.(root) < 0 then begin
      of_root.(root) <- !fresh;
      incr fresh
    end;
    region_cluster.(r) <- of_root.(root)
  done;
  let fresh = !fresh in
  let sizes = Array.make fresh 0 in
  let region_local = Array.make size 0 in
  for r = 0 to size - 1 do
    let q = region_cluster.(r) in
    region_local.(r) <- sizes.(q);
    sizes.(q) <- sizes.(q) + 1
  done;
  let nets = Array.map (fun n -> Array.make n 0) sizes in
  for r = 0 to size - 1 do
    nets.(region_cluster.(r)).(region_local.(r)) <- region.(r)
  done;
  (* Ids as [extract] assigns them, dense in the order of each
     cluster's lowest net: the kept clusters in their old order, merged
     with the region's. [kept.(c)] is the old id of new cluster [c], or
     [-1] for a region cluster, whose id is [ids.(q)]. When the region's
     lowest nets are the touched clusters', every id stays. *)
  let count = old_count - Array.length touched + fresh in
  let kept = Array.make count (-1) in
  let ids = Array.make fresh 0 in
  let c = ref 0 and q = ref 0 and t = ref 0 in
  let place_region_below low =
    while !q < fresh && nets.(!q).(0) < low do
      ids.(!q) <- !c;
      incr c;
      incr q
    done
  in
  for o = 0 to old_count - 1 do
    if !t < Array.length touched && touched.(!t) = o then incr t
    else begin
      place_region_below old.(o).nets.(0);
      kept.(!c) <- o;
      incr c
    end
  done;
  place_region_below max_int;
  (* The net maps: shared while no entry moves, as under a resize;
     otherwise extended over the appended nets and rewritten for the
     region and for every renumbered kept cluster. *)
  let renumbered = ref false in
  Array.iteri (fun c o -> if o >= 0 && o <> c then renumbered := true) kept;
  let moved = ref (net_count > old_nets || !renumbered) in
  for r = 0 to size - 1 do
    if not !moved then
      moved :=
        table.cluster_of_net.(region.(r)) <> ids.(region_cluster.(r))
        || table.local_of_net.(region.(r)) <> region_local.(r)
  done;
  let cluster_of_net, local_of_net =
    if not !moved then (table.cluster_of_net, table.local_of_net)
    else begin
      let extend a =
        let b = Array.make net_count 0 in
        Array.blit a 0 b 0 old_nets;
        b
      in
      let cluster_of_net = extend table.cluster_of_net in
      let local_of_net = extend table.local_of_net in
      Array.iteri
        (fun c o ->
           if o >= 0 && o <> c then
             Array.iter (fun net -> cluster_of_net.(net) <- c) old.(o).nets)
        kept;
      for r = 0 to size - 1 do
        cluster_of_net.(region.(r)) <- ids.(region_cluster.(r));
        local_of_net.(region.(r)) <- region_local.(r)
      done;
      (cluster_of_net, local_of_net)
    end
  in
  (* Appended nets carry no element, so the touched clusters' terminals
     name every element with a net in the region. *)
  let terminal_elements =
    let acc = ref [] in
    Array.iter
      (fun c ->
         let add (terminal : terminal) = acc := terminal.element :: !acc in
         Array.iter add old.(c).inputs;
         Array.iter add old.(c).outputs)
      touched;
    List.sort_uniq Int.compare !acc
  in
  let built =
    build ~design ~elements ~delays ~cluster_of_net ~local_of_net ~ids ~nets
      ~instances
      ~terminal_elements:(fun f -> List.iter f terminal_elements)
  in
  let next = ref 0 in
  let clusters =
    Array.init count (fun c ->
        match kept.(c) with
        | -1 ->
          let cluster = built.(!next) in
          incr next;
          cluster
        | o -> if old.(o).id = c then old.(o) else { (old.(o)) with id = c })
  in
  ({ clusters; cluster_of_net; local_of_net }, kept)

(* The first arc of [inst] in [cluster], or where it would go: a
   cluster's arcs are in ascending instance order. *)
let first_arc (cluster : t) inst =
  let lo = ref 0 and hi = ref (Array.length cluster.arc_inst) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cluster.arc_inst.(mid) < inst then lo := mid + 1 else hi := mid
  done;
  !lo

let refresh_instance_delays table ~design ~insts ?(delays = Delays.lumped) () =
  let fail m = invalid_arg ("Cluster.refresh_instance_delays: " ^ m) in
  if Array.length table.cluster_of_net <> Hb_netlist.Design.net_count design
  then fail "net count mismatch";
  (* An instance's arcs sit together in its cluster, in the order
     [iter_instance_arcs] visits them, so replaying extraction's walk from
     the first one rewrites each in place. *)
  let refresh touched inst =
    let record = Hb_netlist.Design.instance design inst in
    let c = instance_cluster table.cluster_of_net record in
    if c < 0 then touched
    else begin
      let cluster = table.clusters.(c) in
      let owns j =
        j < Array.length cluster.arc_inst && cluster.arc_inst.(j) = inst
      in
      let mismatch () =
        fail (record.Hb_netlist.Design.inst_name ^ ": arcs differ from table")
      in
      let start = first_arc cluster inst in
      let j = ref start in
      iter_instance_arcs
        (fun inst arc in_net out_net ->
           if
             not (owns !j)
             || cluster.nets.(cluster.arc_from.(!j)) <> in_net
             || cluster.nets.(cluster.arc_to.(!j)) <> out_net
           then mismatch ();
           store_delays delays ~design ~inst ~arc ~out_net
             ~rise:cluster.arc_rise ~fall:cluster.arc_fall
             ~dmax:cluster.arc_dmax ~dmin:cluster.arc_dmin !j;
           incr j)
        inst record;
      if owns !j then mismatch ();
      if !j > start then c :: touched else touched
    end
  in
  List.sort_uniq compare (List.fold_left refresh [] insts)

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
