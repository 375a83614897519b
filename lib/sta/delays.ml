type t = {
  name : string;
  evaluate :
    design:Hb_netlist.Design.t ->
    inst:int ->
    arc:Hb_cell.Cell.timing_arc ->
    out_net:int ->
    Hb_util.Time.t * Hb_util.Time.t;
}

let lumped =
  { name = "lumped";
    evaluate =
      (fun ~design ~inst:_ ~arc ~out_net ->
         let load =
           (Hb_netlist.Design.net design out_net).Hb_netlist.Design.load_capacitance
         in
         let delay = arc.Hb_cell.Cell.delay in
         ( Hb_cell.Delay_model.eval_arc delay.Hb_cell.Delay_model.rise ~load,
           Hb_cell.Delay_model.eval_arc delay.Hb_cell.Delay_model.fall ~load ));
  }

(* Sink list of a net: one (label, pin capacitance) per load pin; output
   ports contribute a capacitance-free sink. *)
let sinks_of_net design out_net =
  let net = Hb_netlist.Design.net design out_net in
  List.map
    (fun endpoint ->
       match endpoint with
       | Hb_netlist.Design.Pin { inst; pin } ->
         let cell =
           (Hb_netlist.Design.instance design inst).Hb_netlist.Design.cell
         in
         let capacitance =
           match Hb_cell.Cell.find_pin cell pin with
           | Some p -> p.Hb_cell.Cell.capacitance
           | None -> 0.0
         in
         (Printf.sprintf "%d.%s" inst pin, capacitance)
       | Hb_netlist.Design.Port p ->
         ( (Hb_netlist.Design.port design p).Hb_netlist.Design.port_name,
           0.0 ))
    net.Hb_netlist.Design.loads

let chain =
  { Hb_rc.Wire_model.default with
    Hb_rc.Wire_model.topology = Hb_rc.Wire_model.Chain }

let rc ?(parameters = Hb_rc.Wire_model.default) () =
  (* Other wire parameters get a name of their own, so consumers that
     rebuild a provider by name (snapshot restore) can tell they cannot. *)
  { name =
      (if parameters = Hb_rc.Wire_model.default then "rc"
       else if parameters = chain then "rc-chain"
       else "rc-custom");
    evaluate =
      (fun ~design ~inst:_ ~arc ~out_net ->
         let sinks = sinks_of_net design out_net in
         let delay = arc.Hb_cell.Cell.delay in
         match sinks with
         | [] ->
           (* Unloaded output: intrinsic only. *)
           ( delay.Hb_cell.Delay_model.rise.Hb_cell.Delay_model.intrinsic,
             delay.Hb_cell.Delay_model.fall.Hb_cell.Delay_model.intrinsic )
         | _ :: _ ->
           let tree = Hb_rc.Wire_model.net_tree ~parameters ~sinks in
           let direction (a : Hb_cell.Delay_model.arc) =
             let _, elmore =
               Hb_rc.Elmore.worst_sink tree
                 ~r_driver:a.Hb_cell.Delay_model.slope
             in
             a.Hb_cell.Delay_model.intrinsic +. elmore
           in
           ( direction delay.Hb_cell.Delay_model.rise,
             direction delay.Hb_cell.Delay_model.fall ));
  }

let named = [ lumped; rc (); rc ~parameters:chain () ]
let names = List.map (fun d -> d.name) named
let of_name name = List.find_opt (fun d -> String.equal d.name name) named
