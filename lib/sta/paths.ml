type hop = {
  net : int;
  via : int option;
  at : Hb_util.Time.t;
}

let c_states_expanded = Hb_util.Telemetry.counter "paths.states_expanded"
let c_heap_pushes = Hb_util.Telemetry.counter "paths.heap_pushes"
let c_bound_prunes = Hb_util.Telemetry.counter "paths.bound_prunes"
let c_topk_evictions = Hb_util.Telemetry.counter "paths.topk_evictions"
let g_state_pool = Hb_util.Telemetry.gauge "paths.state_pool_capacity"

type path = {
  start_element : int;
  end_element : int;
  cluster : int;
  cut : int;
  slack : Hb_util.Time.t;
  hops : hop list;
}

(* Same-file finiteness test: {!Hb_util.Time.is_finite} crosses a
   library boundary, which boxes its float argument on every call on the
   non-flambda compiler; this runs two or three times per explored arc.
   [x -. x] is zero exactly for finite [x] (nan or infinite otherwise). *)
let[@inline] finite (x : float) = x -. x = 0.0

(* Allocation-free min-heap over (float priority, int payload) pairs,
   stored as two parallel arrays. Ordering is lexicographic on
   (priority, payload). It lives in this file because on the
   non-flambda compiler a float argument crossing a compilation-unit
   boundary is boxed even under [@inline] (measured 16 B per push), and
   the enumeration loop below pushes once per explored arc; within one
   unit the attribute does inline and the priorities stay unboxed. *)
type iheap = {
  mutable hprio : float array;
  mutable hpayload : int array;
  mutable hsize : int;
}

let[@inline] hless h i j =
  h.hprio.(i) < h.hprio.(j)
  || (h.hprio.(i) = h.hprio.(j) && h.hpayload.(i) < h.hpayload.(j))

let rec hsift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if hless h i parent then begin
      let p = h.hprio.(i) and v = h.hpayload.(i) in
      h.hprio.(i) <- h.hprio.(parent);
      h.hpayload.(i) <- h.hpayload.(parent);
      h.hprio.(parent) <- p;
      h.hpayload.(parent) <- v;
      hsift_up h parent
    end
  end

let[@inline] hpush h ~priority value =
  if h.hsize = Array.length h.hprio then begin
    let capacity = Stdlib.max 16 (2 * h.hsize) in
    let prio = Array.make capacity 0.0 in
    let payload = Array.make capacity 0 in
    Array.blit h.hprio 0 prio 0 h.hsize;
    Array.blit h.hpayload 0 payload 0 h.hsize;
    h.hprio <- prio;
    h.hpayload <- payload
  end;
  h.hprio.(h.hsize) <- priority;
  h.hpayload.(h.hsize) <- value;
  h.hsize <- h.hsize + 1;
  hsift_up h (h.hsize - 1)

let rec hsift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.hsize && hless h left !smallest then smallest := left;
  if right < h.hsize && hless h right !smallest then smallest := right;
  if !smallest <> i then begin
    let j = !smallest in
    let p = h.hprio.(i) and v = h.hpayload.(i) in
    h.hprio.(i) <- h.hprio.(j);
    h.hpayload.(i) <- h.hpayload.(j);
    h.hprio.(j) <- p;
    h.hpayload.(j) <- v;
    hsift_down h j
  end

let[@inline] hpop h =
  let value = h.hpayload.(0) in
  h.hsize <- h.hsize - 1;
  if h.hsize > 0 then begin
    h.hprio.(0) <- h.hprio.(h.hsize);
    h.hpayload.(0) <- h.hpayload.(h.hsize);
    hsift_down h 0
  end;
  value

(* Bounded k-worst selection: a min-heap on (negated slack, element) of
   at most [limit] entries replaces the seed's full sort + quadratic
   take. The eviction rule reproduces the seed's ordering exactly —
   ascending slack, equal slacks in descending element order (the
   stable sort saw elements consed in descending order). *)
let worst_endpoints (slacks : Slacks.t) ~limit =
  if limit <= 0 then []
  else begin
    let heap = { hprio = [||]; hpayload = [||]; hsize = 0 } in
    Array.iteri
      (fun e slack ->
         if Hb_util.Time.is_finite slack then begin
           if heap.hsize < limit then hpush heap ~priority:(-.slack) e
           (* Root = the kept entry ordered last: largest slack, ties
              on the smallest element id. *)
           else if slack < -.heap.hprio.(0)
                || (slack = -.heap.hprio.(0) && e > heap.hpayload.(0))
           then begin
             ignore (hpop heap);
             hpush heap ~priority:(-.slack) e
           end
         end)
      slacks.Slacks.element_input_slack;
    let acc = ref [] in
    while heap.hsize > 0 do
      let s = -.heap.hprio.(0) in
      let e = hpop heap in
      acc := (e, s) :: !acc
    done;
    !acc
  end

let critical_path (ctx : Context.t) ~endpoint =
  match ctx.Context.elements.Elements.reads.(endpoint) with
  | None -> None
  | Some global_net ->
    let cluster_id = ctx.Context.table.Cluster.cluster_of_net.(global_net) in
    let cluster = ctx.Context.table.Cluster.clusters.(cluster_id) in
    (match ctx.Context.passes.Passes.endpoint_cut.(endpoint) with
     | cut when cut < 0 -> None
     | cut ->
       let passes = ctx.Context.passes in
       let elements = ctx.Context.elements in
       let mode : Block.mode =
         if ctx.Context.config.Config.rise_fall then `Rise_fall else `Scalar
       in
       let result = Block.evaluate ~passes ~elements ~cluster ~cut ~mode () in
       let end_net = ctx.Context.table.Cluster.local_of_net.(global_net) in
       if not (Hb_util.Time.is_finite result.Block.ready.(end_net)) then None
       else begin
         let element = Elements.element elements endpoint in
         let closure =
           match Block.closure_time passes element ~cut with
           | Some t -> t
           | None -> Hb_util.Time.infinity
         in
         let slack = closure -. result.Block.ready.(end_net) in
         (* Arrival of one polarity at a local net; [`Worst] is the scalar
            view (both polarity arrays coincide in scalar mode). *)
         let arrival net = function
           | `Rise -> result.Block.ready_rise.(net)
           | `Fall -> result.Block.ready_fall.(net)
           | `Worst -> result.Block.ready.(net)
         in
         (* The source polarity and delay of an arc that could realise the
            given output polarity. *)
         let arc_step j pol =
           match mode, pol with
           | `Scalar, _ | _, `Worst -> (`Worst, cluster.Cluster.arc_dmax.(j))
           | `Rise_fall, `Rise ->
             ((match cluster.Cluster.arc_sense.(j) with
               | `Positive -> `Rise
               | `Negative -> `Fall
               | `Non_unate -> `Worst),
              cluster.Cluster.arc_rise.(j))
           | `Rise_fall, `Fall ->
             ((match cluster.Cluster.arc_sense.(j) with
               | `Positive -> `Fall
               | `Negative -> `Rise
               | `Non_unate -> `Worst),
              cluster.Cluster.arc_fall.(j))
         in
         (* Walk backwards along arcs that realise the ready time of the
            critical polarity. *)
         let rec backtrack net pol acc =
           let ready = arrival net pol in
           let source =
             let rec scan k =
               if k >= cluster.Cluster.pred_off.(net + 1) then None
               else
                 let j = cluster.Cluster.pred_arc.(k) in
                 let src_pol, delay = arc_step j pol in
                 let src = arrival cluster.Cluster.arc_from.(j) src_pol in
                 if Hb_util.Time.is_finite src
                 && Hb_util.Time.equal (src +. delay) ready
                 then Some (j, src_pol)
                 else scan (k + 1)
             in
             scan cluster.Cluster.pred_off.(net)
           in
           match source with
           | Some (j, src_pol) ->
             let hop =
               { net = cluster.Cluster.nets.(net);
                 via = Some cluster.Cluster.arc_inst.(j);
                 at = ready }
             in
             backtrack cluster.Cluster.arc_from.(j) src_pol (hop :: acc)
           | None ->
             (net, { net = cluster.Cluster.nets.(net); via = None; at = ready } :: acc)
         in
         let end_pol =
           match mode with
           | `Scalar -> `Worst
           | `Rise_fall ->
             if result.Block.ready_rise.(end_net)
                >= result.Block.ready_fall.(end_net)
             then `Rise
             else `Fall
         in
         let start_net, hops = backtrack end_net end_pol [] in
         (* Which input element launches at exactly the start ready
            time? *)
         let start_ready = result.Block.ready.(start_net) in
         let launcher = ref None in
         Array.iter
           (fun (terminal : Cluster.terminal) ->
              if terminal.Cluster.net = start_net && !launcher = None then begin
                let candidate = Elements.element elements terminal.Cluster.element in
                match Block.assertion_time passes candidate ~cut with
                | Some t when Hb_util.Time.equal t start_ready ->
                  launcher := Some terminal.Cluster.element
                | Some _ | None -> ()
              end)
           cluster.Cluster.inputs;
         match !launcher with
         | None -> None
         | Some start_element ->
           Some { start_element; end_element = endpoint;
                  cluster = cluster_id; cut; slack; hops }
       end)

(* Deterministic parallel map over endpoints: results land in slots
   indexed by input position, so the output order is independent of which
   domain ran which endpoint. *)
let map_endpoints (ctx : Context.t) endpoints f =
  let count = Array.length endpoints in
  let jobs = Stdlib.min ctx.Context.config.Config.parallel_jobs count in
  (* Deadline poll per endpoint: no-op on pool worker domains, fires on
     the inline/submitter domain the serve scheduler guards. *)
  let f endpoint = Hb_util.Timeout.check (); f endpoint in
  if jobs <= 1 || count <= 1 then Array.map f endpoints
  else
    Hb_util.Pool.map ~label:"paths.endpoints" (Hb_util.Pool.shared ~jobs)
      ~count (fun i -> f endpoints.(i))

let worst_paths ctx slacks ~limit =
  let endpoints = Array.of_list (worst_endpoints slacks ~limit) in
  let paths =
    map_endpoints ctx endpoints (fun (endpoint, _) ->
        critical_path ctx ~endpoint)
  in
  List.filter_map Fun.id (Array.to_list paths)

let slow_paths ctx slacks ~limit =
  let endpoints =
    Array.of_list
      (List.filter
         (fun (_, slack) -> Hb_util.Time.le slack 0.0)
         (worst_endpoints slacks ~limit))
  in
  let paths =
    map_endpoints ctx endpoints (fun (endpoint, _) ->
        critical_path ctx ~endpoint)
  in
  List.filter_map Fun.id (Array.to_list paths)

(* K-worst path enumeration by best-first search over partial paths: each
   state's priority is its arrival so far plus the longest remaining delay
   to the endpoint, so states pop in order of final arrival up to
   rounding (see the margin below) and the first completed paths are the
   worst paths. Uses the scalar (worst-delay) arrival view.

   Three things keep the hot loop allocation-free where the seed consed a
   hop list per push:

   - Shared-prefix predecessor pool. A search state is an index into four
     parallel scratch arrays (net, parent state, tag, arrival); hop lists
     are materialised only for the [limit] surviving completions by
     walking the parent chain.

   - Per-domain scratch. The pool arrays, the three heaps and the
     [remaining] buffer live in a [Domain.DLS] slot and only grow, so
     repeated calls — including parallel fan-out from
     {!enumerate_many} — reuse their high-water-mark buffers.

   - Admissible-bound pruning. [arrival + remaining] is an *achievable*
     completion bound (realised by an actual suffix), so a min-heap of
     the [limit] best bounds of distinct completions gives a sound
     threshold: a push whose bound is below the k-th best by more than
     the margin is skipped, keeping the frontier O(live states) instead
     of O(all partial paths). Distinctness uses a canonical-child rule —
     when a state expands, the child realising the largest bound
     continues the completion already counted (at the state's root or
     first divergence), so only the other children offer new bounds —
     and that child is pushed without the admissibility test, since its
     chain is exactly what the threshold is made of.

   The margin makes the search exact. A bound [a +. r] and the arrival
   its completion reaches, [(a +. d1) +. ... +. dn], are two roundings of
   one real sum: [r] folds the suffix delays right to left, the arrival
   folds them left to right. Delays are non-negative, so every partial
   sum of either fold lies within [scale], the largest [|launch| +.
   remaining] over the roots, and each n-hop fold is off by at most
   [n * 2^-53 * scale]. A bound can thus sit below its completion's
   arrival by two such errors, and the threshold above the k-th
   arrival by as much again. [margin = 1e-9 *. scale] covers all of it
   for paths of up to a million hops, and admits little beyond exact
   ties. With it, no pruned state and no state left on the frontier can
   complete above the k-th arrival. *)

(* [hoffer h ~limit x] keeps the [limit] largest priorities offered to
   [h], whose root is then the smallest kept; returns whether one was
   evicted. *)
let[@inline] hoffer h ~limit priority =
  if h.hsize < limit then begin
    hpush h ~priority 0;
    false
  end
  else if priority > h.hprio.(0) then begin
    ignore (hpop h);
    hpush h ~priority 0;
    true
  end
  else false

type scratch = {
  mutable remaining : float array;  (* longest delay to the endpoint *)
  frontier : iheap;                 (* live states, by negated bound *)
  topk : iheap;                     (* best completion bounds seen *)
  kth : iheap;                      (* best completion arrivals found *)
  mutable state_net : int array;
  mutable state_parent : int array; (* -1 for root states *)
  mutable state_tag : int array;    (* root: element id; else arc index *)
  mutable state_arrival : float array;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { remaining = [||];
        frontier = { hprio = [||]; hpayload = [||]; hsize = 0 };
        topk = { hprio = [||]; hpayload = [||]; hsize = 0 };
        kth = { hprio = [||]; hpayload = [||]; hsize = 0 };
        state_net = [||];
        state_parent = [||];
        state_tag = [||];
        state_arrival = [||];
      })

let enumerate (ctx : Context.t) ~endpoint ~limit =
  if limit <= 0 then []
  else
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
          let s = Domain.DLS.get scratch_key in
          (* Counter deltas accumulate in local refs and flush once at the
             end: per-arc [Telemetry.add] calls (a DLS lookup each) would
             be measurable here. One hoisted flag read keeps the disabled
             path at its PR 2 cost. *)
          let t_on = Hb_util.Telemetry.enabled () in
          let n_expanded = ref 0 and n_pushes = ref 0 in
          let n_prunes = ref 0 and n_evictions = ref 0 in
          let n = Array.length cluster.Cluster.nets in
          (* Longest delay from each net to the endpoint net. *)
          if Array.length s.remaining < n then
            s.remaining <- Array.make n 0.0;
          let remaining = s.remaining in
          Array.fill remaining 0 n Hb_util.Time.neg_infinity;
          remaining.(end_net) <- 0.0;
          (* Direct CSR walk: [iter_succ] would allocate a closure per
             net, once per enumerate call. *)
          for i = Array.length cluster.Cluster.topo - 1 downto 0 do
            let net = cluster.Cluster.topo.(i) in
            for k = cluster.Cluster.succ_off.(net)
                to cluster.Cluster.succ_off.(net + 1) - 1 do
              let j = cluster.Cluster.succ_arc.(k) in
              let r = remaining.(cluster.Cluster.arc_to.(j)) in
              if finite r then begin
                let d = r +. cluster.Cluster.arc_dmax.(j) in
                if d > remaining.(net) then remaining.(net) <- d
              end
            done
          done;
          s.frontier.hsize <- 0;
          s.topk.hsize <- 0;
          s.kth.hsize <- 0;
          let states = ref 0 in
          (* The arrival is written by the caller straight into
             [state_arrival]: a float parameter here would be boxed on
             every call (non-flambda closures are not reliably inlined),
             and this runs once per explored arc. *)
          let add_state ~net ~parent ~tag =
            let i = !states in
            if i = Array.length s.state_net then begin
              let capacity = Stdlib.max 1024 (2 * i) in
              let grow_ints old =
                let fresh = Array.make capacity 0 in
                Array.blit old 0 fresh 0 i;
                fresh
              in
              s.state_net <- grow_ints s.state_net;
              s.state_parent <- grow_ints s.state_parent;
              s.state_tag <- grow_ints s.state_tag;
              let fresh = Array.make capacity 0.0 in
              Array.blit s.state_arrival 0 fresh 0 i;
              s.state_arrival <- fresh
            end;
            s.state_net.(i) <- net;
            s.state_parent.(i) <- parent;
            s.state_tag.(i) <- tag;
            incr states;
            i
          in
          let topk = s.topk and kth = s.kth in
          (* Every root is pushed: the margin needs the scale of all of
             them first, and a root costs one push. *)
          let scale = ref 0.0 in
          let inputs = cluster.Cluster.inputs in
          for x = 0 to Array.length inputs - 1 do
            let { Cluster.element = source; net } = inputs.(x) in
            let r = remaining.(net) in
            if finite r then begin
              match
                Block.assertion_time passes
                  (Elements.element elements source) ~cut
              with
              | None -> ()
              | Some t ->
                let bound = t +. r in
                if Float.abs t +. r > !scale then scale := Float.abs t +. r;
                if hoffer topk ~limit bound && t_on then
                  Stdlib.incr n_evictions;
                let i = add_state ~net ~parent:(-1) ~tag:source in
                s.state_arrival.(i) <- t;
                if t_on then Stdlib.incr n_pushes;
                hpush s.frontier ~priority:(-.bound) i
            end
          done;
          let margin = 1e-9 *. !scale in
          let completions = ref [] in
          (* After [limit] completions, states whose bound is within the
             margin of the k-th arrival may still complete above it. *)
          while s.frontier.hsize > 0
                && (kth.hsize < limit
                    || -.s.frontier.hprio.(0) +. margin >= kth.hprio.(0)) do
            let i = hpop s.frontier in
            if t_on then Stdlib.incr n_expanded;
            let net = s.state_net.(i) in
            let arrival = s.state_arrival.(i) in
            if net = end_net then begin
              ignore (hoffer kth ~limit arrival);
              completions := i :: !completions
            end
            else begin
              (* The canonical child continues the completion this state
                 was counted under: the first arc realising the largest
                 child bound (the argmax is recomputed rather than
                 compared to the parent bound — float addition is not
                 associative). *)
              let canonical = ref (-1) in
              let best = ref Hb_util.Time.neg_infinity in
              for k = cluster.Cluster.succ_off.(net)
                  to cluster.Cluster.succ_off.(net + 1) - 1 do
                let j = cluster.Cluster.succ_arc.(k) in
                let r = remaining.(cluster.Cluster.arc_to.(j)) in
                if finite r then begin
                  let b = arrival +. cluster.Cluster.arc_dmax.(j) +. r in
                  if b > !best then begin
                    best := b;
                    canonical := k
                  end
                end
              done;
              for k = cluster.Cluster.succ_off.(net)
                  to cluster.Cluster.succ_off.(net + 1) - 1 do
                let arc_index = cluster.Cluster.succ_arc.(k) in
                let to_net = cluster.Cluster.arc_to.(arc_index) in
                let r = remaining.(to_net) in
                if finite r then begin
                  let t = arrival +. cluster.Cluster.arc_dmax.(arc_index) in
                  let b = t +. r in
                  (* Only non-canonical children count a new
                     completion. *)
                  if k <> !canonical && hoffer topk ~limit b && t_on then
                    Stdlib.incr n_evictions;
                  (* The canonical child is pushed unconditionally: it
                     continues a completion already counted in [topk],
                     and its recomputed bound can sit a ulp below the
                     bound that was counted, so testing it against the
                     threshold could starve the very chains the
                     threshold is made of. Others face the admissibility
                     test. *)
                  if k = !canonical
                  || topk.hsize < limit
                  || b +. margin >= topk.hprio.(0)
                  then begin
                    let j =
                      add_state ~net:to_net ~parent:i
                        ~tag:arc_index
                    in
                    s.state_arrival.(j) <- t;
                    if t_on then Stdlib.incr n_pushes;
                    hpush s.frontier ~priority:(-.b) j
                  end
                  else if t_on then Stdlib.incr n_prunes
                end
              done
            end
          done;
          if t_on then begin
            Hb_util.Telemetry.add c_states_expanded !n_expanded;
            Hb_util.Telemetry.add c_heap_pushes !n_pushes;
            Hb_util.Telemetry.add c_bound_prunes !n_prunes;
            Hb_util.Telemetry.add c_topk_evictions !n_evictions;
            Hb_util.Telemetry.set_gauge g_state_pool
              (float_of_int (Array.length s.state_net))
          end;
          (* Completions pop in bound order, which can invert two
             near-equal paths by a ulp. A stable sort on slack makes
             "worst slack first" exact; equal slacks keep pop order.
             Hops are materialised for the [limit] survivors only. *)
          let ranked =
            List.stable_sort
              (fun i j ->
                 Float.compare
                   (closure -. s.state_arrival.(i))
                   (closure -. s.state_arrival.(j)))
              (List.rev !completions)
          in
          let rec build j acc =
            let hop =
              { net = cluster.Cluster.nets.(s.state_net.(j));
                via =
                  (if s.state_parent.(j) < 0 then None
                   else Some cluster.Cluster.arc_inst.(s.state_tag.(j)));
                at = s.state_arrival.(j);
              }
            in
            if s.state_parent.(j) < 0 then (s.state_tag.(j), hop :: acc)
            else build s.state_parent.(j) (hop :: acc)
          in
          let rec take rank = function
            | i :: rest when rank < limit ->
              let start_element, hops = build i [] in
              { start_element; end_element = endpoint; cluster = cluster_id;
                cut; slack = closure -. s.state_arrival.(i); hops }
              :: take (rank + 1) rest
            | _ -> []
          in
          take 0 ranked
      end

let enumerate_many (ctx : Context.t) ~endpoints ~limit =
  let endpoints = Array.of_list endpoints in
  Array.to_list
    (map_endpoints ctx endpoints (fun endpoint ->
         enumerate ctx ~endpoint ~limit))

let pp (ctx : Context.t) ppf path =
  let design = ctx.Context.design in
  let elements = ctx.Context.elements in
  let start = Elements.element elements path.start_element in
  let finish = Elements.element elements path.end_element in
  Format.fprintf ppf "@[<v 2>path (slack %a) %s -> %s:@,"
    Hb_util.Time.pp path.slack
    start.Hb_sync.Element.label finish.Hb_sync.Element.label;
  List.iter
    (fun hop ->
       let net_name = (Hb_netlist.Design.net design hop.net).Hb_netlist.Design.net_name in
       match hop.via with
       | None -> Format.fprintf ppf "launch  %-20s @@ %a@," net_name Hb_util.Time.pp hop.at
       | Some inst ->
         Format.fprintf ppf "via %-10s -> %-12s @@ %a@,"
           (Hb_netlist.Design.instance design inst).Hb_netlist.Design.inst_name
           net_name Hb_util.Time.pp hop.at)
    path.hops;
  Format.fprintf ppf "@]"
