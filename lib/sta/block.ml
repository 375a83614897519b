type mode = [ `Scalar | `Rise_fall ]

type result = {
  ready : Hb_util.Time.t array;
  ready_rise : Hb_util.Time.t array;
  ready_fall : Hb_util.Time.t array;
  required : Hb_util.Time.t array;
}

(* Boundary times are [linear +. offset], read from the pass tables and
   the element's cached offsets; the sweeps below form the same sum
   inline. *)
let assertion_time passes (element : Hb_sync.Element.t) ~cut =
  let node =
    passes.Passes.element_assertion_node.(element.Hb_sync.Element.id)
  in
  if node < 0 then None
  else
    Some
      (passes.Passes.linear.((cut * passes.Passes.node_count) + node)
       +. element.Hb_sync.Element.offsets.Hb_sync.Element.assertion)

let closure_time passes (element : Hb_sync.Element.t) ~cut =
  let node =
    passes.Passes.element_closure_node.(element.Hb_sync.Element.id)
  in
  if node < 0 then None
  else
    Some
      (passes.Passes.linear.((cut * passes.Passes.node_count) + node)
       +. element.Hb_sync.Element.offsets.Hb_sync.Element.closure)

let create_result ~nets:n =
  { ready = Array.make n Hb_util.Time.neg_infinity;
    ready_rise = Array.make n Hb_util.Time.neg_infinity;
    ready_fall = Array.make n Hb_util.Time.neg_infinity;
    required = Array.make n Hb_util.Time.infinity;
  }

(* Sweeps carry each net's time as a source-tagged pair (base, acc): the
   winning boundary assertion (or closure) time plus a delay accumulator
   folded along the winning path, with the absolute time rounded as
   fl(base + acc) (forward) / fl(base - acc) (backward). Rounding the sum
   this way makes the full sweep agree bit-for-bit with {!Macro}'s
   condensed interface arcs, which fold path delays with no boundary time
   mixed in. [ready_rise]/[ready_fall] double as (base, acc) scratch for
   the backward and scalar-forward phases; the rise/fall-separated forward
   sweep still uses them as genuine per-polarity absolute arrivals.

   Every loop is a plain for-loop calling only Stdlib: no closure, and no
   float boxed per net or terminal (cross-module float helpers do not
   inline under [-opaque]). *)
let evaluate_into ~passes ~elements ~(cluster : Cluster.t) ~cut ~mode
    (out : result) =
  let n = Array.length cluster.Cluster.nets in
  if Array.length out.ready <> n then
    invalid_arg "Block.evaluate_into: result sized for a different cluster";
  let ready = out.ready in
  let ready_rise = out.ready_rise in
  let ready_fall = out.ready_fall in
  let required = out.required in
  let succ_off = cluster.Cluster.succ_off in
  let succ_arc = cluster.Cluster.succ_arc in
  let pred_off = cluster.Cluster.pred_off in
  let pred_arc = cluster.Cluster.pred_arc in
  let arc_to = cluster.Cluster.arc_to in
  let arc_from = cluster.Cluster.arc_from in
  let arc_dmax = cluster.Cluster.arc_dmax in
  let arc_rise = cluster.Cluster.arc_rise in
  let arc_fall = cluster.Cluster.arc_fall in
  let arc_sense = cluster.Cluster.arc_sense in
  let topo = cluster.Cluster.topo in
  let inputs = cluster.Cluster.inputs in
  let outputs = cluster.Cluster.outputs in
  let all = elements.Elements.all in
  let linear = passes.Passes.linear in
  let row = cut * passes.Passes.node_count in
  let assertion_node = passes.Passes.element_assertion_node in
  let closure_node = passes.Passes.element_closure_node in
  (* Backward sweep first — equation (2), expressed through required
     times, with worst arc delays in both modes (safe). Runs before the
     forward phase so ready_rise/ready_fall are free to serve as its
     (base, acc) scratch. *)
  let base = ready_rise and acc = ready_fall in
  Array.fill required 0 n Float.infinity;
  let assignment = passes.Passes.plans.(cluster.Cluster.id).Passes.assignment in
  for o = 0 to Array.length outputs - 1 do
    let e = outputs.(o).Cluster.element in
    let node = closure_node.(e) in
    if assignment.(o) = cut && node >= 0 then begin
      let t =
        linear.(row + node)
        +. all.(e).Hb_sync.Element.offsets.Hb_sync.Element.closure
      in
      let net = outputs.(o).Cluster.net in
      if t < required.(net) then begin
        required.(net) <- t;
        base.(net) <- t;
        acc.(net) <- 0.0
      end
    end
  done;
  for i = Array.length topo - 1 downto 0 do
    let net = topo.(i) in
    if Float.is_finite required.(net) then begin
      let b = base.(net) and a = acc.(net) in
      for k = pred_off.(net) to pred_off.(net + 1) - 1 do
        let j = pred_arc.(k) in
        let a' = a +. arc_dmax.(j) in
        let t = b -. a' in
        let from_net = arc_from.(j) in
        if t < required.(from_net) then begin
          required.(from_net) <- t;
          base.(from_net) <- b;
          acc.(from_net) <- a'
        end
      done
    end
  done;
  (* Boundary assertions seed the forward phases. *)
  Array.fill ready 0 n Float.neg_infinity;
  (match mode with
   | `Scalar -> ()
   | `Rise_fall ->
     Array.fill ready_rise 0 n Float.neg_infinity;
     Array.fill ready_fall 0 n Float.neg_infinity);
  for i = 0 to Array.length inputs - 1 do
    let e = inputs.(i).Cluster.element in
    let node = assertion_node.(e) in
    if node >= 0 then begin
      let t =
        linear.(row + node)
        +. all.(e).Hb_sync.Element.offsets.Hb_sync.Element.assertion
      in
      let net = inputs.(i).Cluster.net in
      match mode with
      | `Scalar ->
        if t > ready.(net) then begin
          ready.(net) <- t;
          ready_rise.(net) <- t;
          ready_fall.(net) <- 0.0
        end
      | `Rise_fall ->
        if t > ready_rise.(net) then ready_rise.(net) <- t;
        if t > ready_fall.(net) then ready_fall.(net) <- t
    end
  done;
  (* Forward sweep: equation (1). Under [`Scalar] one worst-delay arrival
     is propagated as a (base, acc) pair; under [`Rise_fall] arcs route
     each polarity according to their unateness. *)
  match mode with
  | `Scalar ->
    for i = 0 to Array.length topo - 1 do
      let net = topo.(i) in
      if Float.is_finite ready.(net) then begin
        let b = ready_rise.(net) and a = ready_fall.(net) in
        for k = succ_off.(net) to succ_off.(net + 1) - 1 do
          let j = succ_arc.(k) in
          let a' = a +. arc_dmax.(j) in
          let t = b +. a' in
          let to_net = arc_to.(j) in
          if t > ready.(to_net) then begin
            ready.(to_net) <- t;
            ready_rise.(to_net) <- b;
            ready_fall.(to_net) <- a'
          end
        done
      end
    done;
    (* Scalar invariant: both polarity views equal the worst arrival. *)
    Array.blit ready 0 ready_rise 0 n;
    Array.blit ready 0 ready_fall 0 n
  | `Rise_fall ->
    for i = 0 to Array.length topo - 1 do
      let net = topo.(i) in
      let rise = ready_rise.(net) and fall = ready_fall.(net) in
      (* Hb_util.Time.max rise fall *)
      let worst = if rise >= fall then rise else fall in
      if Float.is_finite rise || Float.is_finite fall then
        for k = succ_off.(net) to succ_off.(net + 1) - 1 do
          let j = succ_arc.(k) in
          let to_net = arc_to.(j) in
          let in_for_rise =
            match arc_sense.(j) with
            | `Positive -> rise
            | `Negative -> fall
            | `Non_unate -> worst
          in
          let in_for_fall =
            match arc_sense.(j) with
            | `Positive -> fall
            | `Negative -> rise
            | `Non_unate -> worst
          in
          if Float.is_finite in_for_rise then begin
            let t = in_for_rise +. arc_rise.(j) in
            if t > ready_rise.(to_net) then ready_rise.(to_net) <- t
          end;
          if Float.is_finite in_for_fall then begin
            let t = in_for_fall +. arc_fall.(j) in
            if t > ready_fall.(to_net) then ready_fall.(to_net) <- t
          end
        done
    done;
    for i = 0 to n - 1 do
      let rise = ready_rise.(i) and fall = ready_fall.(i) in
      (* Hb_util.Time.max rise fall *)
      ready.(i) <- (if rise >= fall then rise else fall)
    done

let evaluate ~passes ~elements ~(cluster : Cluster.t) ~cut ?(mode = `Scalar) () =
  let result = create_result ~nets:(Array.length cluster.Cluster.nets) in
  evaluate_into ~passes ~elements ~cluster ~cut ~mode result;
  result
