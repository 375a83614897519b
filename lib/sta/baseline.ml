exception Budget_exhausted

(* The seed's k-worst path enumerator, kept as the baseline for bench
   section P2 and the old-vs-new parity checks: best-first search whose
   states carry a materialised hop list each (one list cons, one tuple
   and one boxed heap entry per push). [Paths.enumerate] replaces this
   with a predecessor pool + bound pruning; both must return the same
   paths. *)
let k_worst_paths (ctx : Context.t) ~endpoint ~limit =
  match ctx.Context.elements.Elements.reads.(endpoint) with
  | None -> []
  | Some global_net ->
    let passes = ctx.Context.passes in
    let cut = passes.Passes.endpoint_cut.(endpoint) in
    if cut < 0 then []
    else begin
      let cluster_id = ctx.Context.table.Cluster.cluster_of_net.(global_net) in
      let cluster = ctx.Context.table.Cluster.clusters.(cluster_id) in
      let elements = ctx.Context.elements in
      let end_net = ctx.Context.table.Cluster.local_of_net.(global_net) in
      let element = Elements.element elements endpoint in
      match Block.closure_time passes element ~cut with
      | None -> []
      | Some closure ->
        let n = Array.length cluster.Cluster.nets in
        let remaining = Array.make n Hb_util.Time.neg_infinity in
        remaining.(end_net) <- 0.0;
        for i = Array.length cluster.Cluster.topo - 1 downto 0 do
          let net = cluster.Cluster.topo.(i) in
          Cluster.iter_succ cluster net ~f:(fun arc_index ->
              let arc = cluster.Cluster.arcs.(arc_index) in
              if Hb_util.Time.is_finite remaining.(arc.Cluster.to_net) then begin
                let d = remaining.(arc.Cluster.to_net) +. arc.Cluster.dmax in
                if d > remaining.(net) then remaining.(net) <- d
              end)
        done;
        let heap = Hb_util.Heap.create () in
        Array.iter
          (fun (terminal : Cluster.terminal) ->
             if Hb_util.Time.is_finite remaining.(terminal.Cluster.net) then begin
               let source = Elements.element elements terminal.Cluster.element in
               match Block.assertion_time passes source ~cut with
               | None -> ()
               | Some t ->
                 let hops =
                   [ { Paths.net = cluster.Cluster.nets.(terminal.Cluster.net);
                       via = None; at = t } ]
                 in
                 Hb_util.Heap.push heap
                   ~priority:(-.(t +. remaining.(terminal.Cluster.net)))
                   (terminal.Cluster.element, terminal.Cluster.net, t, hops)
             end)
          cluster.Cluster.inputs;
        let results = ref [] in
        let found = ref 0 in
        while !found < limit && not (Hb_util.Heap.is_empty heap) do
          let _, (start_element, net, arrival, hops) = Hb_util.Heap.pop heap in
          if net = end_net then begin
            incr found;
            results :=
              { Paths.start_element;
                end_element = endpoint;
                cluster = cluster_id;
                cut;
                slack = closure -. arrival;
                hops = List.rev hops;
              }
              :: !results
          end
          else
            Cluster.iter_succ cluster net ~f:(fun arc_index ->
                let arc = cluster.Cluster.arcs.(arc_index) in
                if Hb_util.Time.is_finite remaining.(arc.Cluster.to_net)
                then begin
                  let t = arrival +. arc.Cluster.dmax in
                  let hop =
                    { Paths.net = cluster.Cluster.nets.(arc.Cluster.to_net);
                      via = Some arc.Cluster.inst;
                      at = t }
                  in
                  Hb_util.Heap.push heap
                    ~priority:(-.(t +. remaining.(arc.Cluster.to_net)))
                    (start_element, arc.Cluster.to_net, t, hop :: hops)
                end)
        done;
        (* Same final sort as Paths.enumerate: pop order can invert two
           near-equal completions by a ulp (bound sums associate
           differently along different prefixes). *)
        List.stable_sort
          (fun (a : Paths.path) (b : Paths.path) ->
             Float.compare a.Paths.slack b.Paths.slack)
          (List.rev !results)
    end

(* Every complete path into the endpoint, by naive depth-first walk —
   the reference the property tests compare [Paths.enumerate] against.
   Only arcs that can still reach the endpoint are taken (same [remaining]
   gate as the enumerators), and the result is sorted worst slack first.
   Tie order among equal slacks is unspecified. *)
let exhaustive_paths (ctx : Context.t) ~endpoint ?(max_paths = 1_000_000) () =
  match ctx.Context.elements.Elements.reads.(endpoint) with
  | None -> []
  | Some global_net ->
    let passes = ctx.Context.passes in
    let cut = passes.Passes.endpoint_cut.(endpoint) in
    if cut < 0 then []
    else begin
      let cluster_id = ctx.Context.table.Cluster.cluster_of_net.(global_net) in
      let cluster = ctx.Context.table.Cluster.clusters.(cluster_id) in
      let elements = ctx.Context.elements in
      let end_net = ctx.Context.table.Cluster.local_of_net.(global_net) in
      let element = Elements.element elements endpoint in
      match Block.closure_time passes element ~cut with
      | None -> []
      | Some closure ->
        let n = Array.length cluster.Cluster.nets in
        let remaining = Array.make n Hb_util.Time.neg_infinity in
        remaining.(end_net) <- 0.0;
        for i = Array.length cluster.Cluster.topo - 1 downto 0 do
          let net = cluster.Cluster.topo.(i) in
          Cluster.iter_succ cluster net ~f:(fun arc_index ->
              let arc = cluster.Cluster.arcs.(arc_index) in
              if Hb_util.Time.is_finite remaining.(arc.Cluster.to_net) then begin
                let d = remaining.(arc.Cluster.to_net) +. arc.Cluster.dmax in
                if d > remaining.(net) then remaining.(net) <- d
              end)
        done;
        let results = ref [] in
        let count = ref 0 in
        let record start_element arrival hops_rev =
          incr count;
          if !count > max_paths then raise Budget_exhausted;
          results :=
            { Paths.start_element;
              end_element = endpoint;
              cluster = cluster_id;
              cut;
              slack = closure -. arrival;
              hops = List.rev hops_rev;
            }
            :: !results
        in
        let rec walk start_element net arrival hops_rev =
          if net = end_net then record start_element arrival hops_rev
          else
            Cluster.iter_succ cluster net ~f:(fun arc_index ->
                let arc = cluster.Cluster.arcs.(arc_index) in
                if Hb_util.Time.is_finite remaining.(arc.Cluster.to_net)
                then begin
                  let t = arrival +. arc.Cluster.dmax in
                  let hop =
                    { Paths.net = cluster.Cluster.nets.(arc.Cluster.to_net);
                      via = Some arc.Cluster.inst;
                      at = t }
                  in
                  walk start_element arc.Cluster.to_net t (hop :: hops_rev)
                end)
        in
        Array.iter
          (fun (terminal : Cluster.terminal) ->
             if Hb_util.Time.is_finite remaining.(terminal.Cluster.net) then begin
               let source = Elements.element elements terminal.Cluster.element in
               match Block.assertion_time passes source ~cut with
               | None -> ()
               | Some t ->
                 walk terminal.Cluster.element terminal.Cluster.net t
                   [ { Paths.net = cluster.Cluster.nets.(terminal.Cluster.net);
                       via = None; at = t } ]
             end)
          cluster.Cluster.inputs;
        List.stable_sort
          (fun (a : Paths.path) (b : Paths.path) ->
             Float.compare a.Paths.slack b.Paths.slack)
          !results
    end

type settling_report = {
  minimized_passes : int;
  naive_settling_times : int;
  per_cluster : (int * int * int) list;
}

let settling_times (ctx : Context.t) =
  let passes = ctx.Context.passes in
  let elements = ctx.Context.elements in
  let per_cluster = ref [] in
  Array.iter
    (fun (cluster : Cluster.t) ->
       if Array.length cluster.Cluster.inputs > 0
       && Array.length cluster.Cluster.outputs > 0 then begin
         let plan = passes.Passes.plans.(cluster.Cluster.id) in
         let minimized = List.length plan.Passes.cuts in
         (* One settling time per distinct input assertion edge. *)
         let edges = Hashtbl.create 8 in
         Array.iter
           (fun (terminal : Cluster.terminal) ->
              let element = Elements.element elements terminal.Cluster.element in
              match element.Hb_sync.Element.assertion_edge with
              | Some edge -> Hashtbl.replace edges edge ()
              | None -> ())
           cluster.Cluster.inputs;
         let naive = Stdlib.max 1 (Hashtbl.length edges) in
         per_cluster := (cluster.Cluster.id, minimized, naive) :: !per_cluster
       end)
    ctx.Context.table.Cluster.clusters;
  let per_cluster = List.rev !per_cluster in
  { minimized_passes =
      List.fold_left (fun acc (_, m, _) -> acc + m) 0 per_cluster;
    naive_settling_times =
      List.fold_left (fun acc (_, _, n) -> acc + n) 0 per_cluster;
    per_cluster;
  }
