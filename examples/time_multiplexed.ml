(* The paper's Figure 1: logic time-multiplexed by four clock phases.

   Four transparent latches controlled by four different phases feed one
   logic cone whose output is captured by latches on two of the phases.
   The cone's output must settle to two different valid states during each
   overall clock period. The pre-processing stage (Section 7 of the paper)
   breaks the clock period open twice — the minimum — where attributing a
   settling time to every source clock edge would analyse the cone four
   times.

   Run with:  dune exec examples/time_multiplexed.exe *)

let () =
  let design, system = Hb_workload.Figures.figure1 () in
  let report = Hb_sta.Engine.analyse ~design ~system () in
  let ctx = report.Hb_sta.Engine.context in

  print_string (Hb_sta.Report.summary report);
  print_newline ();

  (* Per-cluster pass accounting: the shared cone is the cluster with four
     input terminals. *)
  let passes = ctx.Hb_sta.Context.passes in
  let table = ctx.Hb_sta.Context.table in
  let settling = Hb_sta.Passes.settling_times passes ~table in
  print_endline "cluster        passes(min)  settling-times(per-edge)";
  List.iter
    (fun (id, minimized, naive) ->
       let cluster = ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters.(id) in
       Printf.printf "cluster %-2d %8d %12d   (%d gates, %d inputs, %d outputs)\n"
         id minimized naive
         (List.length cluster.Hb_sta.Cluster.members)
         (Array.length cluster.Hb_sta.Cluster.inputs)
         (Array.length cluster.Hb_sta.Cluster.outputs))
    (Hb_sta.Passes.cluster_settling_times passes ~table);
  Printf.printf "total: %d minimum passes vs %d per-edge settling times\n\n"
    settling.Hb_sta.Passes.minimized_passes
    settling.Hb_sta.Passes.naive_settling_times;

  (* Show the two passes of the shared cone: which closure is analysed in
     which broken-open order. *)
  let cone =
    let best = ref None in
    Array.iter
      (fun (c : Hb_sta.Cluster.t) ->
         if Array.length c.Hb_sta.Cluster.inputs = 4 then best := Some c)
      ctx.Hb_sta.Context.table.Hb_sta.Cluster.clusters;
    match !best with
    | Some c -> c
    | None -> failwith "cone cluster not found"
  in
  let plan = ctx.Hb_sta.Context.passes.Hb_sta.Passes.plans.(cone.Hb_sta.Cluster.id) in
  Printf.printf "the shared cone (cluster %d) uses %d passes; output assignment:\n"
    cone.Hb_sta.Cluster.id (List.length plan.Hb_sta.Passes.cuts);
  Array.iteri
    (fun i (terminal : Hb_sta.Cluster.terminal) ->
       let element =
         Hb_sta.Elements.element ctx.Hb_sta.Context.elements
           terminal.Hb_sta.Cluster.element
       in
       Printf.printf "  output %d (%s) -> pass at cut %d\n" i
         element.Hb_sync.Element.label plan.Hb_sta.Passes.assignment.(i))
    cone.Hb_sta.Cluster.outputs
