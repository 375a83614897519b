type t = {
  design : Hb_netlist.Design.t;
  system : Hb_clock.System.t;
  all : Hb_sync.Element.t array;
  reads : int option array;
  drives : int list array;
  replicas_of_inst : (int, int list) Hashtbl.t;
  control : (int, Control.info) Hashtbl.t;
}

exception Build_error of string

let error fmt = Format.kasprintf (fun m -> raise (Build_error m)) fmt

type accumulator = {
  mutable items : (Hb_sync.Element.t * int option * int list) list;  (* reversed *)
  mutable next_id : int;
}

let push acc make_element ~reads ~drives =
  let id = acc.next_id in
  acc.next_id <- acc.next_id + 1;
  let element = make_element id in
  acc.items <- (element, reads, drives) :: acc.items;
  element

(* The data-input and output nets of a synchronising instance. All
   connected output pins (q, and qb when present) assert at the same
   time. *)
let sync_nets design inst =
  let cell = (Hb_netlist.Design.instance design inst).Hb_netlist.Design.cell in
  let reads =
    match Hb_cell.Cell.input_pins cell with
    | pin :: _ ->
      Hb_netlist.Design.net_of_pin design ~inst ~pin:pin.Hb_cell.Cell.pin_name
    | [] -> None
  in
  let drives =
    List.filter_map
      (fun pin ->
         Hb_netlist.Design.net_of_pin design ~inst
           ~pin:pin.Hb_cell.Cell.pin_name)
      (Hb_cell.Cell.output_pins cell)
  in
  (reads, drives)

let control_net design inst =
  let cell = (Hb_netlist.Design.instance design inst).Hb_netlist.Design.cell in
  match Hb_cell.Cell.control_pins cell with
  | pin :: _ ->
    Hb_netlist.Design.net_of_pin design ~inst ~pin:pin.Hb_cell.Cell.pin_name
  | [] -> None

(* Ideal edges of replica [pulse] of an element with the given control
   sense. An inverted control pulse spans from the clock's trailing edge of
   pulse k to the leading edge of pulse k+1 (wrapping). *)
let replica_edges ~kind ~clock ~multiplier ~inverted ~pulse =
  match kind, inverted with
  | Hb_cell.Kind.Edge_ff, false ->
    let e = Hb_clock.Edge.trailing ~clock ~pulse in
    (e, e)
  | Hb_cell.Kind.Edge_ff, true ->
    let e = Hb_clock.Edge.leading ~clock ~pulse in
    (e, e)
  | (Hb_cell.Kind.Transparent_latch | Hb_cell.Kind.Tristate_driver), false ->
    (Hb_clock.Edge.leading ~clock ~pulse, Hb_clock.Edge.trailing ~clock ~pulse)
  | (Hb_cell.Kind.Transparent_latch | Hb_cell.Kind.Tristate_driver), true ->
    ( Hb_clock.Edge.trailing ~clock ~pulse,
      Hb_clock.Edge.leading ~clock ~pulse:((pulse + 1) mod multiplier) )

(* The control edge whose arrival causes output assertion; enable signals
   must be valid before it. *)
let assertion_control_edge ~clock ~inverted ~pulse =
  if inverted then Hb_clock.Edge.trailing ~clock ~pulse
  else Hb_clock.Edge.leading ~clock ~pulse

let build ~design ~system ~config =
  let acc = { items = []; next_id = 0 } in
  let replicas_of_inst = Hashtbl.create 64 in
  let control = Hashtbl.create 64 in
  let infos =
    try Control.trace_all design
    with Control.Control_error m -> error "%s" m
  in
  List.iter
    (fun (inst, info) ->
       Hashtbl.replace control inst info;
       let inst_record = Hb_netlist.Design.instance design inst in
       let cell = inst_record.Hb_netlist.Design.cell in
       let kind =
         match cell.Hb_cell.Cell.kind with
         | Hb_cell.Kind.Sync k -> k
         | Hb_cell.Kind.Comb _ ->
           invalid_arg
             (Printf.sprintf
                "Elements.build: control trace reached combinational cell %s"
                cell.Hb_cell.Cell.name)
       in
       let waveform =
         match Hb_clock.System.find system info.Control.clock with
         | Some w -> w
         | None ->
           error "clock port %s has no waveform in the clock system"
             info.Control.clock
       in
       let multiplier = waveform.Hb_clock.Waveform.multiplier in
       let own_period =
         Hb_clock.Waveform.own_period waveform
           ~overall_period:system.Hb_clock.System.overall_period
       in
       let pulse_width =
         if info.Control.inverted then own_period -. waveform.Hb_clock.Waveform.width
         else waveform.Hb_clock.Waveform.width
       in
       if pulse_width <= 0.0 then
         error "instance %s: inverted control of clock %s leaves no pulse"
           inst_record.Hb_netlist.Design.inst_name info.Control.clock;
       let setup, d_cz, d_dz = Hb_cell.Cell.sync_parameters cell in
       let params =
         { Hb_sync.Model.setup; d_cz; d_dz; pulse_width;
           control_delay = info.Control.control_delay }
       in
       let reads, drives = sync_nets design inst in
       (* Multicycle exception: the endpoint's closure is allowed (n-1)
          extra periods of its own clock. *)
       let extra_closure_delay =
         match
           List.assoc_opt inst_record.Hb_netlist.Design.inst_name
             config.Config.multicycle
         with
         | Some n when n >= 1 -> float_of_int (n - 1) *. own_period
         | Some n ->
           error "instance %s: multicycle %d is not >= 1"
             inst_record.Hb_netlist.Design.inst_name n
         | None -> 0.0
       in
       let ids = ref [] in
       for pulse = 0 to multiplier - 1 do
         let assertion_edge, closure_edge =
           replica_edges ~kind ~clock:info.Control.clock ~multiplier
             ~inverted:info.Control.inverted ~pulse
         in
         let element =
           push acc
             (fun id ->
                Hb_sync.Element.clocked ~extra_closure_delay ~id ~inst
                  ~label:(Printf.sprintf "%s#%d"
                            inst_record.Hb_netlist.Design.inst_name pulse)
                  ~replica:pulse ~kind ~params ~assertion_edge ~closure_edge ())
             ~reads ~drives
         in
         ids := element.Hb_sync.Element.id :: !ids
       done;
       Hashtbl.replace replicas_of_inst inst (List.rev !ids);
       (* Enable endpoints: the gated control pin must be stable before the
          assertion-control edge of every replica. *)
       if info.Control.has_enables then begin
         match control_net design inst with
         | None -> ()
         | Some net ->
           for pulse = 0 to multiplier - 1 do
             let edge =
               assertion_control_edge ~clock:info.Control.clock
                 ~inverted:info.Control.inverted ~pulse
             in
             ignore
               (push acc
                  (fun id ->
                     Hb_sync.Element.output_boundary ~inst ~id
                       ~label:(Printf.sprintf "%s.ck#%d"
                                 inst_record.Hb_netlist.Design.inst_name pulse)
                       ~edge ~required_offset:0.0)
                  ~reads:(Some net) ~drives:[])
           done
       end)
    infos;
  (* Primary port boundaries (non-clock ports only). *)
  for p = 0 to Hb_netlist.Design.port_count design - 1 do
    let port = Hb_netlist.Design.port design p in
    if not port.Hb_netlist.Design.is_clock then begin
      let net = Hb_netlist.Design.net_of_port design p in
      match port.Hb_netlist.Design.direction, net with
      | _, None -> ()
      | Hb_netlist.Design.Port_in, Some net ->
        let timing =
          Config.port_timing config ~system
            ~port:port.Hb_netlist.Design.port_name ~direction:`Input
        in
        ignore
          (push acc
             (fun id ->
                Hb_sync.Element.input_boundary ~inst:(-1) ~id
                  ~label:(Printf.sprintf "port %s" port.Hb_netlist.Design.port_name)
                  ~edge:timing.Config.edge ~arrival_offset:timing.Config.offset)
             ~reads:None ~drives:[ net ])
      | Hb_netlist.Design.Port_out, Some net ->
        let timing =
          Config.port_timing config ~system
            ~port:port.Hb_netlist.Design.port_name ~direction:`Output
        in
        ignore
          (push acc
             (fun id ->
                Hb_sync.Element.output_boundary ~inst:(-1) ~id
                  ~label:(Printf.sprintf "port %s" port.Hb_netlist.Design.port_name)
                  ~edge:timing.Config.edge ~required_offset:timing.Config.offset)
             ~reads:(Some net) ~drives:[])
    end
  done;
  let items = Array.of_list (List.rev acc.items) in
  let all = Array.map (fun (e, _, _) -> e) items in
  let reads = Array.map (fun (_, r, _) -> r) items in
  let drives = Array.map (fun (_, _, d) -> d) items in
  (* Validate every referenced edge is placeable in the clock system. *)
  Array.iter
    (fun e ->
       let check = function
         | None -> ()
         | Some edge ->
           (try ignore (Hb_clock.System.edge_time system edge)
            with
            | Not_found ->
              error "element %s references unknown clock %s"
                e.Hb_sync.Element.label edge.Hb_clock.Edge.clock
            | Invalid_argument m -> error "element %s: %s" e.Hb_sync.Element.label m)
       in
       check e.Hb_sync.Element.assertion_edge;
       check e.Hb_sync.Element.closure_edge)
    all;
  { design; system; all; reads; drives; replicas_of_inst; control }

let count t = Array.length t.all
let element t i = t.all.(i)

let retarget t ~design = { t with design }
let save_offsets t = Hb_sync.Element.save_all t.all
let restore_offsets t snapshot = Hb_sync.Element.restore_all t.all snapshot
let reset_offsets t = Hb_sync.Element.reset_all t.all
