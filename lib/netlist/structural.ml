(* Id-stable structural surgery on frozen designs.

   Edits are applied in place on a staged batch: one copy of the input's
   instance and net arrays, finished into a new Design.t that shares
   every untouched record with the input. Instance and net ids never
   shift: new instances and nets are appended, removed instances become
   tombstones (empty connection list, endpoints stripped from their
   nets). Keeping ids stable is what lets the analysis layer rebuild
   only the clusters an edit touched. No edit adds, drops or moves a
   [Port] endpoint, so every result keeps its input's port table
   ([Design.unsafe_update]). *)

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

(* Whether one of the first [count] names is [name]: a linear scan, as
   [Design.find_instance] makes. *)
let named count name_of name =
  let rec scan i = i < count && (String.equal (name_of i) name || scan (i + 1)) in
  scan 0

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

module Batch = struct
  (* A batch: the staging copy of the input's arrays. Slots past
     [instance_count] and [net_count] are room reserved for appends; they
     hold a placeholder until an append writes them. *)
  type t = {
    base : Design.t;
    mutable instances : Design.instance array;
    mutable nets : Design.net array;
    mutable instance_count : int;
    mutable net_count : int;
    mutable finished : bool;
  }

  (* A copy of [a] with [room] more slots, filled with [a.(0)] until an
     append writes them. *)
  let with_room a room =
    if room <= 0 || Array.length a = 0 then Array.copy a
    else Array.append a (Array.make room a.(0))

  let stage ?(appends = 0) design =
    { base = design;
      instances = with_room design.Design.instances appends;
      nets = with_room design.Design.nets appends;
      instance_count = Design.instance_count design;
      net_count = Design.net_count design;
      finished = false;
    }

  (* [x] written at slot [count] of [a]: in place while reserved room is
     left, else on a copy one slot longer. *)
  let push a count x =
    if count < Array.length a then begin
      a.(count) <- x;
      a
    end
    else Array.append a [| x |]

  let refresh_caps b touched =
    List.iter
      (fun n ->
         let net = b.nets.(n) in
         b.nets.(n) <-
           { net with
             Design.load_capacitance =
               recompute_load_capacitance b.instances net })
      (List.sort_uniq compare touched)

  let live caller b =
    if b.finished then fail "Structural.%s: batch already finished" caller

  let check_instance caller b inst =
    live caller b;
    if inst < 0 || inst >= b.instance_count then
      fail "Structural.%s: instance %d out of range" caller inst;
    let record = b.instances.(inst) in
    if not (is_comb record.Design.cell) then
      fail "Structural.%s: %s is a synchronising element" caller
        record.Design.inst_name;
    if record.Design.connections = [] then
      fail "Structural.%s: %s was removed" caller record.Design.inst_name;
    record

  let check_net caller b net =
    live caller b;
    if net < 0 || net >= b.net_count then
      fail "Structural.%s: net %d out of range" caller net;
    b.nets.(net)

  let instance_count b = b.instance_count
  let net_count b = b.net_count

  let instance b i =
    if i < 0 || i >= b.instance_count then
      invalid_arg "Structural.Batch.instance: out of range";
    b.instances.(i)

  let net b n =
    if n < 0 || n >= b.net_count then
      invalid_arg "Structural.Batch.net: out of range";
    b.nets.(n)

  let insert_buffer b ~net ~cell ?inst_name ?net_name () =
    let target = check_net "insert_buffer" b net in
    let driver_inst, driver_pin =
      match target.Design.drivers with
      | [ Design.Pin { inst; pin } ]
        when is_comb b.instances.(inst).Design.cell ->
        (inst, pin)
      | [ Design.Pin { inst; pin = _ } ] ->
        fail "Structural.insert_buffer: net %s is driven by synchroniser %s"
          target.Design.net_name b.instances.(inst).Design.inst_name
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
    let inst_id = b.instance_count in
    let new_net_id = b.net_count in
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
    if named b.instance_count (fun i -> b.instances.(i).Design.inst_name) name
    then fail "Structural.insert_buffer: instance %s already exists" name;
    if named b.net_count (fun n -> b.nets.(n).Design.net_name) nname then
      fail "Structural.insert_buffer: net %s already exists" nname;
    let driver = b.instances.(driver_inst) in
    let buffer =
      { Design.inst_name = name;
        cell;
        connections =
          [ (in_pin.Hb_cell.Cell.pin_name, new_net_id);
            (out_pin.Hb_cell.Cell.pin_name, net) ];
        module_path = driver.Design.module_path;
      }
    in
    b.instances <- push b.instances inst_id buffer;
    b.instance_count <- inst_id + 1;
    b.instances.(driver_inst) <-
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
    b.nets <- push b.nets new_net_id stem;
    b.net_count <- new_net_id + 1;
    b.nets.(net) <-
      { target with
        Design.drivers =
          [ Design.Pin { inst = inst_id;
                         pin = out_pin.Hb_cell.Cell.pin_name } ] };
    refresh_caps b [ new_net_id ]

  let resize_gate b ~inst ~cell =
    let record = check_instance "resize_gate" b inst in
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
    b.instances.(inst) <- { record with Design.cell = cell };
    (* Input pin capacitances changed; the nets this gate loads carry
       them. *)
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
    refresh_caps b touched

  let remove_gate b ~inst =
    let record = check_instance "remove_gate" b inst in
    b.instances.(inst) <- { record with Design.connections = [] };
    let keep = function
      | Design.Pin { inst = i; pin = _ } -> i <> inst
      | Design.Port _ -> true
    in
    let touched = List.map snd record.Design.connections in
    List.iter
      (fun n ->
         let net = b.nets.(n) in
         b.nets.(n) <-
           { net with
             Design.drivers = List.filter keep net.Design.drivers;
             loads = List.filter keep net.Design.loads })
      (List.sort_uniq compare touched);
    refresh_caps b touched

  let rewire_pin b ~inst ~pin ~net =
    let record = check_instance "rewire_pin" b inst in
    ignore (check_net "rewire_pin" b net : Design.net);
    let cell_pin =
      match Hb_cell.Cell.find_pin record.Design.cell pin with
      | Some p -> p
      | None ->
        fail "Structural.rewire_pin: %s has no pin %s"
          record.Design.inst_name pin
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
        record.Design.inst_name pin b.nets.(net).Design.net_name;
    b.instances.(inst) <-
      { record with
        Design.connections =
          List.map
            (fun (p, n) -> if p = pin then (p, net) else (p, n))
            record.Design.connections };
    let endpoint = Design.Pin { inst; pin } in
    let from = b.nets.(old_net) in
    b.nets.(old_net) <-
      { from with
        Design.loads =
          List.filter (fun e -> e <> endpoint) from.Design.loads };
    let into = b.nets.(net) in
    b.nets.(net) <-
      { into with Design.loads = into.Design.loads @ [ endpoint ] };
    refresh_caps b [ old_net; net ]

  let finish b =
    live "Batch.finish" b;
    b.finished <- true;
    let fit a count = if count = Array.length a then a else Array.sub a 0 count in
    Design.unsafe_update b.base
      ~instances:(fit b.instances b.instance_count)
      ~nets:(fit b.nets b.net_count)
end

(* One edit as a batch of one, so each edit has one implementation. *)
let single ?appends design edit =
  let b = Batch.stage ?appends design in
  edit b;
  Batch.finish b

let insert_buffer design ~net ~cell ?inst_name ?net_name () =
  single ~appends:1 design (fun b ->
      Batch.insert_buffer b ~net ~cell ?inst_name ?net_name ())

let resize_gate design ~inst ~cell =
  single design (fun b -> Batch.resize_gate b ~inst ~cell)

let remove_gate design ~inst =
  single design (fun b -> Batch.remove_gate b ~inst)

let rewire_pin design ~inst ~pin ~net =
  single design (fun b -> Batch.rewire_pin b ~inst ~pin ~net)
