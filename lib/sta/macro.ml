type t = {
  (* Interface arcs in CSR form, both directions. The forward table is
     keyed by output-terminal index: row [o] holds (input-terminal index,
     accumulated worst delay) pairs for every input reaching [o]. The
     backward table is keyed by input-terminal index with (output-terminal
     index, delay) pairs. Forward delays fold along paths in topological
     order and backward delays in reverse order — the same association the
     full block sweeps use — so the two tables differ in the last ulp and
     are both needed for bit-identity. *)
  fwd_off : int array;
  fwd_in : int array;
  fwd_d : Hb_util.Time.t array;
  bwd_off : int array;
  bwd_out : int array;
  bwd_d : Hb_util.Time.t array;
  (* Boundary element ids, and the boundary times of the pass being
     evaluated: scratch that [evaluate] overwrites on every call. *)
  in_elt : int array;
  out_elt : int array;
  in_time : Hb_util.Time.t array;
  out_time : Hb_util.Time.t array;
}

let c_extractions = Hb_util.Telemetry.counter "macro.extractions"
let c_evaluations = Hb_util.Telemetry.counter "macro.evaluations"

(* Rows accumulate as reversed (index, delay) lists; flatten into CSR
   preserving ascending terminal order (ties in the evaluation folds then
   resolve in the same order as the block sweeps' seed loops). *)
let csr_of_rows rows =
  let nrows = Array.length rows in
  let off = Array.make (nrows + 1) 0 in
  for r = 0 to nrows - 1 do
    off.(r + 1) <- off.(r) + List.length rows.(r)
  done;
  let m = off.(nrows) in
  let idx = Array.make m 0 in
  let d = Array.make m 0.0 in
  for r = 0 to nrows - 1 do
    let k = ref (off.(r + 1) - 1) in
    List.iter
      (fun (i, v) ->
         idx.(!k) <- i;
         d.(!k) <- v;
         decr k)
      rows.(r)
  done;
  (off, idx, d)

let extract ~passes (cluster : Cluster.t) =
  Hb_util.Telemetry.incr c_extractions;
  let n = Array.length cluster.Cluster.nets in
  let inputs = cluster.Cluster.inputs in
  let outputs = cluster.Cluster.outputs in
  let ni = Array.length inputs in
  let no = Array.length outputs in
  let element_of (terminal : Cluster.terminal) = terminal.Cluster.element in
  let in_elt = Array.map element_of inputs in
  let out_elt = Array.map element_of outputs in
  let assertion_node = passes.Passes.element_assertion_node in
  let closure_node = passes.Passes.element_closure_node in
  let topo = cluster.Cluster.topo in
  let succ_off = cluster.Cluster.succ_off in
  let succ_arc = cluster.Cluster.succ_arc in
  let pred_off = cluster.Cluster.pred_off in
  let pred_arc = cluster.Cluster.pred_arc in
  let arc_from = cluster.Cluster.arc_from in
  let arc_to = cluster.Cluster.arc_to in
  let arc_dmax = cluster.Cluster.arc_dmax in
  let value = Array.make n Hb_util.Time.neg_infinity in
  (* Forward: one sweep per asserting input terminal, seeded with delay
     0 at the input's net — which also records the zero-delay self arc
     when an output terminal sits on the very same net. *)
  let fwd_rows = Array.make no [] in
  for i = 0 to ni - 1 do
    if assertion_node.(in_elt.(i)) >= 0 then begin
      Array.fill value 0 n Hb_util.Time.neg_infinity;
      value.(inputs.(i).Cluster.net) <- 0.0;
      for t = 0 to Array.length topo - 1 do
        let net = topo.(t) in
        let v = value.(net) in
        if Float.is_finite v then
          for k = succ_off.(net) to succ_off.(net + 1) - 1 do
            let j = succ_arc.(k) in
            let c = v +. arc_dmax.(j) in
            if c > value.(arc_to.(j)) then value.(arc_to.(j)) <- c
          done
      done;
      for o = 0 to no - 1 do
        let v = value.(outputs.(o).Cluster.net) in
        if Float.is_finite v then fwd_rows.(o) <- (i, v) :: fwd_rows.(o)
      done
    end
  done;
  (* Backward: one reverse sweep per closing output terminal. *)
  let bwd_rows = Array.make ni [] in
  for o = 0 to no - 1 do
    if closure_node.(out_elt.(o)) >= 0 then begin
      Array.fill value 0 n Hb_util.Time.neg_infinity;
      value.(outputs.(o).Cluster.net) <- 0.0;
      for t = Array.length topo - 1 downto 0 do
        let net = topo.(t) in
        let v = value.(net) in
        if Float.is_finite v then
          for k = pred_off.(net) to pred_off.(net + 1) - 1 do
            let j = pred_arc.(k) in
            let c = v +. arc_dmax.(j) in
            if c > value.(arc_from.(j)) then value.(arc_from.(j)) <- c
          done
      done;
      for i = 0 to ni - 1 do
        let v = value.(inputs.(i).Cluster.net) in
        if Float.is_finite v then bwd_rows.(i) <- (o, v) :: bwd_rows.(i)
      done
    end
  done;
  let fwd_off, fwd_in, fwd_d = csr_of_rows fwd_rows in
  let bwd_off, bwd_out, bwd_d = csr_of_rows bwd_rows in
  { fwd_off; fwd_in; fwd_d; bwd_off; bwd_out; bwd_d;
    in_elt; out_elt;
    in_time = Array.make ni 0.0;
    out_time = Array.make no 0.0;
  }

(* Plain for-loops reading the pass tables and the elements' cached
   offsets: no closure, no float boxed per terminal or arc. *)
let evaluate macro ~passes ~elements ~(plan : Passes.plan) ~cut
    ~input_slack ~output_slack =
  Hb_util.Telemetry.incr c_evaluations;
  let all = elements.Elements.all in
  let linear = passes.Passes.linear in
  let row = cut * passes.Passes.node_count in
  let assertion_node = passes.Passes.element_assertion_node in
  let closure_node = passes.Passes.element_closure_node in
  let in_elt = macro.in_elt and out_elt = macro.out_elt in
  let in_time = macro.in_time and out_time = macro.out_time in
  let ni = Array.length in_elt in
  let no = Array.length out_elt in
  let assignment = plan.Passes.assignment in
  (* Absolute boundary times of this pass; offsets are re-read on every
     call because the relaxation loop moves them between snapshots. *)
  for i = 0 to ni - 1 do
    let e = in_elt.(i) in
    let node = assertion_node.(e) in
    in_time.(i) <-
      (if node < 0 then Float.neg_infinity
       else
         linear.(row + node)
         +. all.(e).Hb_sync.Element.offsets.Hb_sync.Element.assertion)
  done;
  (* Output side: ready-time folds and data-input slacks for the outputs
     assigned to this cut; closures stay +inf elsewhere so the backward
     folds ignore them. *)
  for o = 0 to no - 1 do
    let e = out_elt.(o) in
    let node = closure_node.(e) in
    if assignment.(o) = cut && node >= 0 then begin
      let closure =
        linear.(row + node)
        +. all.(e).Hb_sync.Element.offsets.Hb_sync.Element.closure
      in
      out_time.(o) <- closure;
      let ready = ref Float.neg_infinity in
      for k = macro.fwd_off.(o) to macro.fwd_off.(o + 1) - 1 do
        let t = in_time.(macro.fwd_in.(k)) +. macro.fwd_d.(k) in
        if t > !ready then ready := t
      done;
      if Float.is_finite !ready then begin
        let slack = closure -. !ready in
        if slack < input_slack.(e) then input_slack.(e) <- slack
      end
    end
    else out_time.(o) <- Float.infinity
  done;
  (* Input side: required-time folds and element output slacks; every
     pass constrains the paths emanating from an input terminal. *)
  for i = 0 to ni - 1 do
    let e = in_elt.(i) in
    if assertion_node.(e) >= 0 then begin
      let required = ref Float.infinity in
      for k = macro.bwd_off.(i) to macro.bwd_off.(i + 1) - 1 do
        let t = out_time.(macro.bwd_out.(k)) -. macro.bwd_d.(k) in
        if t < !required then required := t
      done;
      if Float.is_finite !required then begin
        let slack = !required -. in_time.(i) in
        if slack < output_slack.(e) then output_slack.(e) <- slack
      end
    end
  done
