type pending_instance = {
  p_name : string;
  p_cell : Hb_cell.Cell.t;
  p_connections : (string * string) list;
  p_module_path : string;
}

type pending_port = {
  q_name : string;
  q_direction : Design.port_direction;
  q_is_clock : bool;
}

type t = {
  design_name : string;
  lib : Hb_cell.Library.t;
  mutable ports : pending_port list;    (* reversed *)
  mutable instances : pending_instance list;  (* reversed *)
  (* Names seen so far, for the duplicate checks; only ever probed. *)
  port_names : (string, unit) Hashtbl.t;
  instance_names : (string, unit) Hashtbl.t;
}

let wire_capacitance_per_load = 0.015

let create ~name ~library =
  { design_name = name;
    lib = library;
    ports = [];
    instances = [];
    port_names = Hashtbl.create 64;
    instance_names = Hashtbl.create 1024;
  }

let library t = t.lib

let add_port t ~name ~direction ~is_clock =
  if Hashtbl.mem t.port_names name then
    invalid_arg (Printf.sprintf "Builder.add_port: duplicate port %s" name);
  Hashtbl.replace t.port_names name ();
  t.ports <- { q_name = name; q_direction = direction; q_is_clock = is_clock } :: t.ports

let add_instance_of_cell t ?(module_path = "") ~name ~cell ~connections () =
  if Hashtbl.mem t.instance_names name then
    invalid_arg (Printf.sprintf "Builder.add_instance: duplicate instance %s" name);
  List.iter
    (fun (pin, _) ->
       match Hb_cell.Cell.find_pin cell pin with
       | Some _ -> ()
       | None ->
         invalid_arg
           (Printf.sprintf "Builder.add_instance: %s has no pin %s"
              cell.Hb_cell.Cell.name pin))
    connections;
  Hashtbl.replace t.instance_names name ();
  t.instances <-
    { p_name = name; p_cell = cell; p_connections = connections;
      p_module_path = module_path }
    :: t.instances

let add_instance t ?module_path ~name ~cell ~connections () =
  match Hb_cell.Library.find t.lib cell with
  | None -> invalid_arg (Printf.sprintf "Builder.add_instance: unknown cell %s" cell)
  | Some c -> add_instance_of_cell t ?module_path ~name ~cell:c ~connections ()

(* The cell's own string for pin [name], which [add_instance] checked it
   has: every instance of a cell then shares one string per pin name,
   where a parsed netlist would hold a copy per connection. *)
let rec own_pin name = function
  | [] -> name
  | (p : Hb_cell.Cell.pin) :: rest ->
    if String.equal p.Hb_cell.Cell.pin_name name then p.Hb_cell.Cell.pin_name
    else own_pin name rest

type net_accum = {
  mutable drivers : Design.endpoint list;
  mutable loads : Design.endpoint list;
  mutable cap : float;
}

let freeze t =
  let fail fmt = Format.kasprintf failwith ("Builder.freeze(%s): " ^^ fmt) t.design_name in
  let ports = Array.of_list (List.rev t.ports) in
  let pending = Array.of_list (List.rev t.instances) in
  (* Assign net ids in first-mention order. *)
  let net_ids = Hashtbl.create (2 * Array.length pending + 16) in
  let net_names = ref [] in
  let net_count = ref 0 in
  let net_id name =
    match Hashtbl.find net_ids name with
    | id -> id
    | exception Not_found ->
      let id = !net_count in
      incr net_count;
      Hashtbl.add net_ids name id;
      net_names := name :: !net_names;
      id
  in
  (* Ports connect to the net bearing their own name. *)
  let port_nets = Array.map (fun p -> net_id p.q_name) ports in
  let instances =
    Array.map
      (fun p ->
         { Design.inst_name = p.p_name;
           cell = p.p_cell;
           connections =
             List.map
               (fun (pin, net) ->
                  (own_pin pin p.p_cell.Hb_cell.Cell.pins, net_id net))
               p.p_connections;
           module_path = p.p_module_path;
         })
      pending
  in
  let accum =
    Array.init !net_count (fun _ -> { drivers = []; loads = []; cap = 0.0 })
  in
  Array.iteri
    (fun i p ->
       let a = accum.(port_nets.(i)) in
       match p.q_direction with
       | Design.Port_in -> a.drivers <- Design.Port i :: a.drivers
       | Design.Port_out -> a.loads <- Design.Port i :: a.loads)
    ports;
  Array.iteri
    (fun i inst ->
       List.iter
         (fun (pin_name, net) ->
            let a = accum.(net) in
            let pin =
              match Hb_cell.Cell.find_pin inst.Design.cell pin_name with
              | Some p -> p
              | None ->
                (* Bindings are validated against the cell in
                   [add_instance]; reaching this means the cell record
                   mutated after the fact. *)
                invalid_arg
                  (Printf.sprintf
                     "Builder.freeze: instance %s binds unknown pin %s"
                     inst.Design.inst_name pin_name)
            in
            let endpoint = Design.Pin { inst = i; pin = pin_name } in
            match pin.Hb_cell.Cell.role with
            | Hb_cell.Cell.Data_out -> a.drivers <- endpoint :: a.drivers
            | Hb_cell.Cell.Data_in | Hb_cell.Cell.Control_in ->
              a.loads <- endpoint :: a.loads;
              a.cap <- a.cap +. pin.Hb_cell.Cell.capacitance)
         inst.Design.connections)
    instances;
  (* Every data/control input pin must be connected. *)
  Array.iter
    (fun inst ->
       List.iter
         (fun pin ->
            match pin.Hb_cell.Cell.role with
            | Hb_cell.Cell.Data_out -> ()
            | Hb_cell.Cell.Data_in | Hb_cell.Cell.Control_in ->
              if not (List.mem_assoc pin.Hb_cell.Cell.pin_name inst.Design.connections)
              then
                fail "instance %s: input pin %s unconnected"
                  inst.Design.inst_name pin.Hb_cell.Cell.pin_name)
         inst.Design.cell.Hb_cell.Cell.pins)
    instances;
  let net_names = Array.of_list (List.rev !net_names) in
  let describe i =
    Printf.sprintf "net %s" net_names.(i)
  in
  let is_tristate_pin = function
    | Design.Pin { inst; pin = _ } ->
      (match instances.(inst).Design.cell.Hb_cell.Cell.kind with
       | Hb_cell.Kind.Sync Hb_cell.Kind.Tristate_driver -> true
       | Hb_cell.Kind.Sync _ | Hb_cell.Kind.Comb _ -> false)
    | Design.Port _ -> false
  in
  let nets =
    Array.init !net_count (fun i ->
        let a = accum.(i) in
        match a.drivers with
        | [] -> fail "%s has no driver" (describe i)
        | [ _ ] | _ :: _ :: _ when
            List.length a.drivers > 1
            && not (List.for_all is_tristate_pin a.drivers) ->
          fail "%s has multiple non-tristate drivers" (describe i)
        | drivers ->
          let loads = List.rev a.loads in
          { Design.net_name = net_names.(i);
            drivers = List.rev drivers;
            loads;
            load_capacitance =
              a.cap
              +. (wire_capacitance_per_load *. float_of_int (List.length loads));
          })
  in
  (* Output ports must be driven: their net has a driver by construction,
     but the port itself must not be that driver. *)
  Array.iteri
    (fun i p ->
       match p.q_direction with
       | Design.Port_in -> ()
       | Design.Port_out ->
         (match nets.(port_nets.(i)).Design.drivers with
          | [ Design.Port j ] when j = i ->
            fail "output port %s is undriven" p.q_name
          | _ :: _ | [] -> ()))
    ports;
  let ports =
    Array.map
      (fun p ->
         { Design.port_name = p.q_name;
           direction = p.q_direction;
           is_clock = p.q_is_clock;
         })
      ports
  in
  Design.unsafe_make ~design_name:t.design_name ~instances ~nets ~ports
