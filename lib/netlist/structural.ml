(* Id-stable structural surgery on frozen designs.

   Every operation returns a new Design.t sharing untouched records with
   the input. Instance and net ids never shift: new instances and nets
   are appended, removed instances become tombstones (empty connection
   list, endpoints stripped from their nets). Keeping ids stable is what
   lets the analysis layer rebuild only the clusters an edit touched.
   No edit adds, drops or moves a [Port] endpoint, so every result keeps
   its input's port table ([Design.unsafe_update]). *)

let fail fmt = Format.kasprintf invalid_arg fmt

let is_comb (cell : Hb_cell.Cell.t) =
  match cell.Hb_cell.Cell.kind with
  | Hb_cell.Kind.Comb _ -> true
  | Hb_cell.Kind.Sync _ -> false

(* The Builder.freeze accumulation, replayed: pin capacitances summed in
   loads-list order, then the per-load wire estimate. Loads lists keep
   Builder's instance-major order, so the fold order matches the one the
   stored value was computed in. *)
let recompute_load_capacitance instances (net : Design.net) =
  let pins =
    List.fold_left
      (fun acc endpoint ->
         match endpoint with
         | Design.Port _ -> acc
         | Design.Pin { inst; pin } ->
           (match
              Hb_cell.Cell.find_pin instances.(inst).Design.cell pin
            with
            | Some p -> acc +. p.Hb_cell.Cell.capacitance
            | None -> acc))
      0.0 net.Design.loads
  in
  pins
  +. (Builder.wire_capacitance_per_load
      *. float_of_int (List.length net.Design.loads))

let refresh_caps instances nets touched =
  List.iter
    (fun n ->
       let net = nets.(n) in
       nets.(n) <-
         { net with
           Design.load_capacitance = recompute_load_capacitance instances net })
    (List.sort_uniq compare touched)

let check_instance caller design inst =
  if inst < 0 || inst >= Design.instance_count design then
    fail "Structural.%s: instance %d out of range" caller inst;
  let record = design.Design.instances.(inst) in
  if not (is_comb record.Design.cell) then
    fail "Structural.%s: %s is a synchronising element" caller
      record.Design.inst_name;
  if record.Design.connections = [] then
    fail "Structural.%s: %s was removed" caller record.Design.inst_name;
  record

let check_net caller design net =
  if net < 0 || net >= Design.net_count design then
    fail "Structural.%s: net %d out of range" caller net;
  design.Design.nets.(net)

(* The single data input and single output of a buffering cell. *)
let buffer_pins caller (cell : Hb_cell.Cell.t) =
  if not (is_comb cell) then
    fail "Structural.%s: %s is not combinational" caller
      cell.Hb_cell.Cell.name;
  let inputs, outputs =
    List.partition
      (fun (p : Hb_cell.Cell.pin) ->
         match p.Hb_cell.Cell.role with
         | Hb_cell.Cell.Data_in | Hb_cell.Cell.Control_in -> true
         | Hb_cell.Cell.Data_out -> false)
      cell.Hb_cell.Cell.pins
  in
  match inputs, outputs with
  | [ i ], [ o ] -> (i, o)
  | _ ->
    fail "Structural.%s: %s is not a single-input single-output cell"
      caller cell.Hb_cell.Cell.name

let insert_buffer design ~net ~cell ?inst_name ?net_name () =
  let target = check_net "insert_buffer" design net in
  let driver_inst, driver_pin =
    match target.Design.drivers with
    | [ Design.Pin { inst; pin } ]
      when is_comb design.Design.instances.(inst).Design.cell ->
      (inst, pin)
    | [ Design.Pin { inst; pin = _ } ] ->
      fail "Structural.insert_buffer: net %s is driven by synchroniser %s"
        target.Design.net_name
        design.Design.instances.(inst).Design.inst_name
    | [ Design.Port _ ] ->
      fail "Structural.insert_buffer: net %s is driven by a primary port"
        target.Design.net_name
    | [] -> fail "Structural.insert_buffer: net %s has no driver"
              target.Design.net_name
    | _ :: _ :: _ ->
      fail "Structural.insert_buffer: net %s has multiple (tristate) drivers"
        target.Design.net_name
  in
  let in_pin, out_pin = buffer_pins "insert_buffer" cell in
  let inst_id = Design.instance_count design in
  let new_net_id = Design.net_count design in
  let name =
    match inst_name with
    | Some n -> n
    | None -> Printf.sprintf "%s_buf%d" target.Design.net_name inst_id
  in
  let nname =
    match net_name with
    | Some n -> n
    | None -> Printf.sprintf "%s_in%d" target.Design.net_name new_net_id
  in
  if Design.find_instance design name <> None then
    fail "Structural.insert_buffer: instance %s already exists" name;
  if Design.find_net design nname <> None then
    fail "Structural.insert_buffer: net %s already exists" nname;
  let driver = design.Design.instances.(driver_inst) in
  let buffer =
    { Design.inst_name = name;
      cell;
      connections =
        [ (in_pin.Hb_cell.Cell.pin_name, new_net_id);
          (out_pin.Hb_cell.Cell.pin_name, net) ];
      module_path = driver.Design.module_path;
    }
  in
  let instances = Array.append design.Design.instances [| buffer |] in
  instances.(driver_inst) <-
    { driver with
      Design.connections =
        List.map
          (fun (pin, n) ->
             if pin = driver_pin && n = net then (pin, new_net_id)
             else (pin, n))
          driver.Design.connections };
  let stem =
    { Design.net_name = nname;
      drivers = [ Design.Pin { inst = driver_inst; pin = driver_pin } ];
      loads =
        [ Design.Pin { inst = inst_id;
                       pin = in_pin.Hb_cell.Cell.pin_name } ];
      load_capacitance = 0.0;
    }
  in
  let nets = Array.append design.Design.nets [| stem |] in
  nets.(net) <-
    { target with
      Design.drivers =
        [ Design.Pin { inst = inst_id;
                       pin = out_pin.Hb_cell.Cell.pin_name } ] };
  refresh_caps instances nets [ new_net_id ];
  Design.unsafe_update design ~instances ~nets

let resize_gate design ~inst ~cell =
  let record = check_instance "resize_gate" design inst in
  if not (is_comb cell) then
    fail "Structural.resize_gate: %s is not combinational"
      cell.Hb_cell.Cell.name;
  List.iter
    (fun (pin, _) ->
       match
         ( Hb_cell.Cell.find_pin record.Design.cell pin,
           Hb_cell.Cell.find_pin cell pin )
       with
       | Some old_pin, Some new_pin
         when old_pin.Hb_cell.Cell.role = new_pin.Hb_cell.Cell.role -> ()
       | _, None ->
         fail "Structural.resize_gate: %s has no pin %s"
           cell.Hb_cell.Cell.name pin
       | _, Some _ ->
         fail "Structural.resize_gate: pin %s changes role in %s" pin
           cell.Hb_cell.Cell.name)
    record.Design.connections;
  List.iter
    (fun (p : Hb_cell.Cell.pin) ->
       match p.Hb_cell.Cell.role with
       | Hb_cell.Cell.Data_out -> ()
       | Hb_cell.Cell.Data_in | Hb_cell.Cell.Control_in ->
         if not (List.mem_assoc p.Hb_cell.Cell.pin_name
                   record.Design.connections)
         then
           fail "Structural.resize_gate: input pin %s of %s unconnected"
             p.Hb_cell.Cell.pin_name cell.Hb_cell.Cell.name)
    cell.Hb_cell.Cell.pins;
  let instances = Array.copy design.Design.instances in
  instances.(inst) <- { record with Design.cell = cell };
  let nets = Array.copy design.Design.nets in
  (* Input pin capacitances changed; the nets this gate loads carry them. *)
  let touched =
    List.filter_map
      (fun (pin, n) ->
         match Hb_cell.Cell.find_pin cell pin with
         | Some p
           when p.Hb_cell.Cell.role <> Hb_cell.Cell.Data_out ->
           Some n
         | Some _ | None -> None)
      record.Design.connections
  in
  refresh_caps instances nets touched;
  Design.unsafe_update design ~instances ~nets

let remove_gate design ~inst =
  let record = check_instance "remove_gate" design inst in
  let instances = Array.copy design.Design.instances in
  instances.(inst) <- { record with Design.connections = [] };
  let nets = Array.copy design.Design.nets in
  let keep = function
    | Design.Pin { inst = i; pin = _ } -> i <> inst
    | Design.Port _ -> true
  in
  let touched = List.map snd record.Design.connections in
  List.iter
    (fun n ->
       let net = nets.(n) in
       nets.(n) <-
         { net with
           Design.drivers = List.filter keep net.Design.drivers;
           loads = List.filter keep net.Design.loads })
    (List.sort_uniq compare touched);
  refresh_caps instances nets touched;
  Design.unsafe_update design ~instances ~nets

let rewire_pin design ~inst ~pin ~net =
  let record = check_instance "rewire_pin" design inst in
  ignore (check_net "rewire_pin" design net : Design.net);
  let cell_pin =
    match Hb_cell.Cell.find_pin record.Design.cell pin with
    | Some p -> p
    | None ->
      fail "Structural.rewire_pin: %s has no pin %s" record.Design.inst_name
        pin
  in
  (* The cell's own string names the moved endpoint, as Builder names
     every other one. *)
  let pin = cell_pin.Hb_cell.Cell.pin_name in
  if cell_pin.Hb_cell.Cell.role = Hb_cell.Cell.Data_out then
    fail "Structural.rewire_pin: %s.%s is an output pin"
      record.Design.inst_name pin;
  let old_net =
    match List.assoc_opt pin record.Design.connections with
    | Some n -> n
    | None ->
      fail "Structural.rewire_pin: %s.%s is unconnected"
        record.Design.inst_name pin
  in
  if old_net = net then
    fail "Structural.rewire_pin: %s.%s is already on net %s"
      record.Design.inst_name pin
      design.Design.nets.(net).Design.net_name;
  let instances = Array.copy design.Design.instances in
  instances.(inst) <-
    { record with
      Design.connections =
        List.map
          (fun (p, n) -> if p = pin then (p, net) else (p, n))
          record.Design.connections };
  let nets = Array.copy design.Design.nets in
  let endpoint = Design.Pin { inst; pin } in
  let from = nets.(old_net) in
  nets.(old_net) <-
    { from with
      Design.loads = List.filter (fun e -> e <> endpoint) from.Design.loads };
  let into = nets.(net) in
  nets.(net) <- { into with Design.loads = into.Design.loads @ [ endpoint ] };
  refresh_caps instances nets [ old_net; net ];
  Design.unsafe_update design ~instances ~nets
