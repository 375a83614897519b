(* The per-layer ledger of a traced run, computed from the spans in one
   [Telemetry.snapshot].

   Span tags say what a span belongs to: ["op:<n>"] for the n-th op of
   the traced loop (the harness sets it on the client domain and the
   serve workload forwards it as the request id, so worker-domain spans
   carry it too) and ["part:<n>"] for the calls a workload makes on its
   own, after the loop, to split a public call that hides several
   layers. A layer's self time is its span's duration minus what its
   children on the same domain cover; on the op's own domain the self
   times of one op add up to its wall time exactly, and the self time
   of the bench's wrapper spans (["op"], ["design.*"]) is the part no
   layer claims. *)

module Telemetry = Hb_util.Telemetry

type node = {
  span : Telemetry.span_record;
  mutable children_s : float;
  mutable parent : node option;
}

let name n = n.span.Telemetry.span_name
let start n = n.span.Telemetry.start_s
let wall n = n.span.Telemetry.wall_s
let domain n = n.span.Telemetry.domain
let stop n = start n +. wall n
let self_s n = Float.max 0.0 (wall n -. n.children_s)

let tag_kind tag =
  match String.index_opt tag ':' with
  | Some i -> String.sub tag 0 i
  | None -> tag

(* Each domain runs one thing at a time, so its spans nest: sorted by
   start (the longer first on a tie), a span's parent is the innermost
   open span that contains its end. *)
let nest (snapshot : Telemetry.snapshot) =
  let by_domain = Hashtbl.create 8 in
  List.iter
    (fun (s : Telemetry.span_record) ->
       let n = { span = s; children_s = 0.0; parent = None } in
       let d = domain n in
       Hashtbl.replace by_domain d
         (n :: Option.value ~default:[] (Hashtbl.find_opt by_domain d)))
    snapshot.Telemetry.spans;
  Hashtbl.fold
    (fun _ nodes acc ->
       let nodes =
         List.stable_sort
           (fun a b ->
              match Float.compare (start a) (start b) with
              | 0 -> Float.compare (wall b) (wall a)
              | c -> c)
           nodes
       in
       let stack = ref [] in
       List.iter
         (fun n ->
            let rec pop () =
              match !stack with
              | top :: rest when stop n > stop top +. 1e-7 ->
                stack := rest;
                pop ()
              | _ -> ()
            in
            pop ();
            (match !stack with
             | top :: _ ->
               n.parent <- Some top;
               top.children_s <- top.children_s +. wall n
             | [] -> ());
            stack := n :: !stack)
         nodes;
       List.rev_append nodes acc)
    by_domain []

(* [per_tag_median ~kind snapshot name] is the median, over the
   ["<kind>:<n>"] tags that recorded a [name] span, of each tag's total
   [name] duration: the seconds one op (or one part) spends in that
   call. 0 when no such tag recorded one. *)
let per_tag_median ~kind (snapshot : Telemetry.snapshot) name =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (s : Telemetry.span_record) ->
       match s.Telemetry.tag with
       | Some tag
         when String.equal s.Telemetry.span_name name
              && String.equal (tag_kind tag) kind ->
         Hashtbl.replace totals tag
           (s.Telemetry.wall_s
            +. Option.value ~default:0.0 (Hashtbl.find_opt totals tag))
       | _ -> ())
    snapshot.Telemetry.spans;
  if Hashtbl.length totals = 0 then 0.0
  else Harness.median (Hashtbl.fold (fun _ v acc -> v :: acc) totals [])

let is_design name = String.starts_with ~prefix:"design." name

let is_wrapper name = String.equal name "op" || is_design name

let rec design_of n =
  if is_design (name n) then Some (name n)
  else Option.bind n.parent design_of

type row = { layer : string; per_op_ms : float; on_op_domain : bool }

type table = {
  title : string;
  ops : int;
  wall_ms : float;  (* per op *)
  rows : row list;  (* op-domain rows first, then other domains *)
}

type t = {
  tables : table list;  (* whole op first, then one per design.* span *)
  parts : (string * float) list;  (* call, median ms per part *)
  op_ms : float;  (* wall time per op, which the op-domain rows add up to *)
  other_share : float;
}

let total f nodes = List.fold_left (fun acc n -> acc +. f n) 0.0 nodes

(* One table over [members] (node, ran on the op's domain), per op of
   [roots]: op-domain rows are self times, which add up to the roots'
   wall time; rows from other domains are wall times. *)
let table title ~roots members =
  let per_op x =
    x *. 1000.0 /. float_of_int (Stdlib.max 1 (List.length roots))
  in
  let sums = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (n, on_op_domain) ->
       let key = (name n, on_op_domain) in
       if not (Hashtbl.mem sums key) then order := key :: !order;
       Hashtbl.replace sums key
         ((if on_op_domain then self_s n else wall n)
          +. Option.value ~default:0.0 (Hashtbl.find_opt sums key)))
    members;
  let rows =
    List.map
      (fun ((layer, on_op_domain) as key) ->
         { layer; on_op_domain; per_op_ms = per_op (Hashtbl.find sums key) })
      !order
    |> List.stable_sort (fun a b ->
        match compare b.on_op_domain a.on_op_domain with
        | 0 -> Float.compare b.per_op_ms a.per_op_ms
        | c -> c)
  in
  { title; ops = List.length roots; wall_ms = per_op (total wall roots); rows }

let make (snapshot : Telemetry.snapshot) =
  let nodes = nest snapshot in
  let op_tag n =
    match n.span.Telemetry.tag with
    | Some tag when String.equal (tag_kind tag) "op" -> Some tag
    | _ -> None
  in
  (* The domain each op ran its client side on: where its root span is. *)
  let root_domain = Hashtbl.create 64 in
  List.iter
    (fun n ->
       match op_tag n with
       | Some tag when String.equal (name n) "op" ->
         Hashtbl.replace root_domain tag (domain n)
       | _ -> ())
    nodes;
  let members =
    List.filter_map
      (fun n ->
         Option.bind (op_tag n) (fun tag ->
             Option.map
               (fun d -> (n, d = domain n))
               (Hashtbl.find_opt root_domain tag)))
      nodes
  in
  let roots_named title =
    List.filter_map
      (fun (n, on) ->
         if on && String.equal (name n) title then Some n else None)
      members
  in
  let roots = roots_named "op" in
  let designs =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (n, on) -> if on then design_of n else None)
         members)
  in
  let design_tables =
    List.map
      (fun d ->
         table d ~roots:(roots_named d)
           (List.filter (fun (n, on) -> on && design_of n = Some d) members))
      designs
  in
  let unclaimed =
    total self_s
      (List.filter_map
         (fun (n, on) -> if on && is_wrapper (name n) then Some n else None)
         members)
  in
  let part_names =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (s : Telemetry.span_record) ->
            match s.Telemetry.tag with
            | Some tag when String.equal (tag_kind tag) "part" ->
              Some s.Telemetry.span_name
            | _ -> None)
         snapshot.Telemetry.spans)
  in
  let op_wall = total wall roots in
  let op_table = table "op" ~roots members in
  { tables = op_table :: design_tables;
    parts =
      List.map
        (fun call ->
           (call, 1000.0 *. per_tag_median ~kind:"part" snapshot call))
        part_names;
    op_ms = op_table.wall_ms;
    other_share = (if op_wall > 0.0 then unclaimed /. op_wall else 0.0);
  }

let render ~workload t =
  let b = Buffer.create 2048 in
  Printf.bprintf b "# Ledger: %s\n" workload;
  List.iter
    (fun table ->
       Printf.bprintf b
         "\n## %s (%d ops, %.3f ms per op)\n\n\
          | layer (span) | self ms/op | share |\n|---|---:|---:|\n"
         table.title table.ops table.wall_ms;
       List.iter
         (fun r ->
            if r.on_op_domain then
              Printf.bprintf b "| %s | %.3f | %.1f%% |\n"
                (if is_wrapper r.layer then r.layer ^ " (unclaimed)"
                 else r.layer)
                r.per_op_ms
                (100.0 *. r.per_op_ms /. Float.max 1e-9 table.wall_ms)
            else
              Printf.bprintf b "| %s (other domains, wall) | %.3f | - |\n"
                r.layer r.per_op_ms)
         table.rows)
    t.tables;
  if t.parts <> [] then begin
    Printf.bprintf b
      "\n## parts, measured separately (median ms per part)\n\n\
       | call | ms |\n|---|---:|\n";
    List.iter (fun (call, ms) -> Printf.bprintf b "| %s | %.3f |\n" call ms)
      t.parts
  end;
  Printf.bprintf b "\nunclaimed share of op wall time: %.4f\n" t.other_share;
  Buffer.contents b
