type t = {
  design : Hb_netlist.Design.t;
  values : bool array;          (* per net *)
  state : bool array;           (* per sync instance: captured value *)
  toggles : int array;          (* per net *)
  comb_order : int list;        (* combinational instances, topological *)
}

let comb_topo design =
  let comb = Array.of_list (Hb_netlist.Design.comb_instances design) in
  let index_of = Hashtbl.create (Array.length comb) in
  Array.iteri (fun i inst -> Hashtbl.replace index_of inst i) comb;
  (* Edges: producer -> consumer when a net ties an output pin of one comb
     instance to an input pin of another. *)
  let consumers_of_net = Hashtbl.create 64 in
  Array.iteri
    (fun i inst ->
       let record = Hb_netlist.Design.instance design inst in
       List.iter
         (fun pin ->
            match
              Hb_netlist.Design.net_of_pin design ~inst
                ~pin:pin.Hb_cell.Cell.pin_name
            with
            | Some net ->
              let existing =
                Option.value ~default:[] (Hashtbl.find_opt consumers_of_net net)
              in
              Hashtbl.replace consumers_of_net net (i :: existing)
            | None -> ())
         (Hb_cell.Cell.input_pins record.Hb_netlist.Design.cell))
    comb;
  let successors i =
    let inst = comb.(i) in
    let record = Hb_netlist.Design.instance design inst in
    List.concat_map
      (fun pin ->
         match
           Hb_netlist.Design.net_of_pin design ~inst
             ~pin:pin.Hb_cell.Cell.pin_name
         with
         | Some net ->
           Option.value ~default:[] (Hashtbl.find_opt consumers_of_net net)
         | None -> [])
      (Hb_cell.Cell.output_pins record.Hb_netlist.Design.cell)
  in
  match Hb_util.Topo.sort ~nodes:(Array.length comb) ~successors with
  | Hb_util.Topo.Sorted order ->
    List.map (fun i -> comb.(i)) (Array.to_list order)
  | Hb_util.Topo.Cycle _ -> failwith "Sim.create: combinational cycle"

let create design =
  { design;
    values = Array.make (Hb_netlist.Design.net_count design) false;
    state = Array.make (Hb_netlist.Design.instance_count design) false;
    toggles = Array.make (Hb_netlist.Design.net_count design) 0;
    comb_order = comb_topo design;
  }

let write_net t net value =
  if t.values.(net) <> value then begin
    t.values.(net) <- value;
    t.toggles.(net) <- t.toggles.(net) + 1
  end

let pin_value t inst pin_name =
  match Hb_netlist.Design.net_of_pin t.design ~inst ~pin:pin_name with
  | Some net -> t.values.(net)
  | None -> false

(* Evaluate one combinational instance from current net values. *)
let evaluate_comb t inst =
  let record = Hb_netlist.Design.instance t.design inst in
  let cell = record.Hb_netlist.Design.cell in
  let kind =
    match cell.Hb_cell.Cell.kind with
    | Hb_cell.Kind.Comb k -> k
    | Hb_cell.Kind.Sync _ ->
      invalid_arg
        (Printf.sprintf "Sim.evaluate_comb: %s is a synchronising cell"
           cell.Hb_cell.Cell.name)
  in
  let inputs =
    List.map
      (fun pin -> pin_value t inst pin.Hb_cell.Cell.pin_name)
      (Hb_cell.Cell.input_pins cell)
  in
  let output =
    match Func.evaluate kind inputs with
    | Some v -> v
    | None ->
      (* Macro fallback: parity. *)
      List.fold_left (fun acc v -> acc <> v) false inputs
  in
  List.iter
    (fun pin ->
       match
         Hb_netlist.Design.net_of_pin t.design ~inst
           ~pin:pin.Hb_cell.Cell.pin_name
       with
       | Some net -> write_net t net output
       | None -> ())
    (Hb_cell.Cell.output_pins cell)

let settle t = List.iter (fun inst -> evaluate_comb t inst) t.comb_order

(* Drive synchroniser outputs from captured state; tristates drive only
   when enabled. *)
let drive_sync_outputs t =
  List.iter
    (fun inst ->
       let record = Hb_netlist.Design.instance t.design inst in
       let cell = record.Hb_netlist.Design.cell in
       let enabled =
         match cell.Hb_cell.Cell.kind with
         | Hb_cell.Kind.Sync Hb_cell.Kind.Tristate_driver ->
           (match Hb_cell.Cell.control_pins cell with
            | pin :: _ -> pin_value t inst pin.Hb_cell.Cell.pin_name
            | [] -> false)
         | Hb_cell.Kind.Sync _ -> true
         | Hb_cell.Kind.Comb _ -> false
       in
       if enabled then
         List.iteri
           (fun i pin ->
              match
                Hb_netlist.Design.net_of_pin t.design ~inst
                  ~pin:pin.Hb_cell.Cell.pin_name
              with
              | Some net ->
                (* q takes the state, qb its complement. *)
                let value = if i = 0 then t.state.(inst) else not t.state.(inst) in
                write_net t net value
              | None -> ())
           (Hb_cell.Cell.output_pins cell))
    (Hb_netlist.Design.sync_instances t.design)

let step t =
  settle t;
  (* Sample every synchroniser's data input. *)
  List.iter
    (fun inst ->
       let record = Hb_netlist.Design.instance t.design inst in
       match Hb_cell.Cell.input_pins record.Hb_netlist.Design.cell with
       | pin :: _ -> t.state.(inst) <- pin_value t inst pin.Hb_cell.Cell.pin_name
       | [] -> ())
    (Hb_netlist.Design.sync_instances t.design);
  drive_sync_outputs t;
  settle t

let find_net_exn t name =
  match Hb_netlist.Design.find_net t.design name with
  | Some net -> net
  | None -> raise Not_found

let set_input t ~port value =
  match Hb_netlist.Design.find_port t.design port with
  | None -> raise Not_found
  | Some _ -> write_net t (find_net_exn t port) value

let net_value t name = t.values.(find_net_exn t name)
let output_value t ~port = net_value t port
let total_toggles t = Array.fold_left ( + ) 0 t.toggles
