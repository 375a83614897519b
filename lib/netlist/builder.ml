(* Nets are interned at first mention and instances stored as their final
   records, so [freeze] only numbers the nets (when ports came late),
   gathers each net's endpoints and validates. *)

(* Name tables compare keys with [String.equal], not polymorphic compare. *)
module Names = Hashtbl.Make (struct
    type t = string
    let equal = String.equal
    let hash = Hashtbl.hash
  end)

type t = {
  design_name : string;
  lib : Hb_cell.Library.t;
  mutable ports : Design.port list;  (* reversed *)
  (* The first [instance_count] slots hold the instances, in order. *)
  mutable instances : Design.instance array;
  mutable instance_count : int;
  (* Net name → interned id, and its inverse in the first [net_count]
     slots of [net_names]; ids follow first mention. *)
  net_ids : int Names.t;
  mutable net_names : string array;
  mutable net_count : int;
  (* Names seen so far, for the duplicate checks; only ever probed. *)
  port_names : unit Names.t;
  instance_names : unit Names.t;
}

let wire_capacitance_per_load = 0.015

let create ~name ~library =
  { design_name = name;
    lib = library;
    ports = [];
    instances = [||];
    instance_count = 0;
    net_ids = Names.create 1024;
    net_names = [||];
    net_count = 0;
    port_names = Names.create 64;
    instance_names = Names.create 1024;
  }

let library t = t.lib

(* [array] with room for one more element after its first [count], the
   new slots filled with [filler]. *)
let with_room array count filler =
  if count < Array.length array then array
  else begin
    let grown = Array.make (max 256 (2 * count)) filler in
    Array.blit array 0 grown 0 count;
    grown
  end

let intern t name =
  match Names.find t.net_ids name with
  | id -> id
  | exception Not_found ->
    let id = t.net_count in
    Names.add t.net_ids name id;
    t.net_names <- with_room t.net_names id name;
    t.net_names.(id) <- name;
    t.net_count <- id + 1;
    id

let add_port t ~name ~direction ~is_clock =
  if Names.mem t.port_names name then
    invalid_arg (Printf.sprintf "Builder.add_port: duplicate port %s" name);
  Names.add t.port_names name ();
  (* The net bears the port's own string, whoever named it first. *)
  let net = intern t name in
  t.net_names.(net) <- name;
  t.ports <- { Design.port_name = name; direction; is_clock } :: t.ports

(* The record of pin [name] among a cell's [pins].
   @raise Not_found when the cell has no such pin. *)
let rec pin_record name = function
  | [] -> raise Not_found
  | (p : Hb_cell.Cell.pin) :: rest ->
    if String.equal p.Hb_cell.Cell.pin_name name then p
    else pin_record name rest

(* The first pin named in [connections] that is not among [pins]. *)
let rec unknown_pin pins = function
  | [] -> None
  | (pin, _) :: rest ->
    (match pin_record pin pins with
     | _ -> unknown_pin pins rest
     | exception Not_found -> Some pin)

(* [connections] with each pin named by the cell's own string and each
   net by its interned id, interned in list order. Every instance of a
   cell then shares one string per pin name. *)
let[@tail_mod_cons] rec resolve t pins = function
  | [] -> []
  | (pin, net) :: rest ->
    let connection =
      ((pin_record pin pins).Hb_cell.Cell.pin_name, intern t net)
    in
    connection :: resolve t pins rest

let add_instance_of_cell t ?(module_path = "") ~name ~cell ~connections () =
  if Names.mem t.instance_names name then
    invalid_arg (Printf.sprintf "Builder.add_instance: duplicate instance %s" name);
  let pins = cell.Hb_cell.Cell.pins in
  (match unknown_pin pins connections with
   | Some pin ->
     invalid_arg
       (Printf.sprintf "Builder.add_instance: %s has no pin %s"
          cell.Hb_cell.Cell.name pin)
   | None -> ());
  Names.add t.instance_names name ();
  (* Resolved only once every pin is checked, so a rejected instance
     interns no net. *)
  let connections = resolve t pins connections in
  let instance = { Design.inst_name = name; cell; connections; module_path } in
  t.instances <- with_room t.instances t.instance_count instance;
  t.instances.(t.instance_count) <- instance;
  t.instance_count <- t.instance_count + 1

let add_instance t ?module_path ~name ~cell ~connections () =
  match Hb_cell.Library.find t.lib cell with
  | None -> invalid_arg (Printf.sprintf "Builder.add_instance: unknown cell %s" cell)
  | Some c -> add_instance_of_cell t ?module_path ~name ~cell:c ~connections ()

let is_input (pin : Hb_cell.Cell.pin) =
  match pin.Hb_cell.Cell.role with
  | Hb_cell.Cell.Data_out -> false
  | Hb_cell.Cell.Data_in | Hb_cell.Cell.Control_in -> true

(* The first input among a cell's [pins] that [connections] leaves
   unconnected. *)
let rec unconnected_input connections = function
  | [] -> None
  | (pin : Hb_cell.Cell.pin) :: rest ->
    if is_input pin
    && not (List.mem_assoc pin.Hb_cell.Cell.pin_name connections)
    then Some pin.Hb_cell.Cell.pin_name
    else unconnected_input connections rest

(* Adds each input pin's capacitance to its net's entry in [pin_cap]. *)
let rec add_pin_caps (pin_cap : float array) pins = function
  | [] -> ()
  | (name, net) :: rest ->
    let pin = pin_record name pins in
    if is_input pin then
      pin_cap.(net) <- pin_cap.(net) +. pin.Hb_cell.Cell.capacitance;
    add_pin_caps pin_cap pins rest

(* Numbers, from [next] on, the nets in [connections] that [renumber]
   has not numbered yet; returns the next free number. *)
let rec number renumber next = function
  | [] -> next
  | (_, id) :: rest ->
    if renumber.(id) >= 0 then number renumber next rest
    else begin
      renumber.(id) <- next;
      number renumber (next + 1) rest
    end

let[@tail_mod_cons] rec remap renumber = function
  | [] -> []
  | (pin, id) :: rest -> (pin, renumber.(id)) :: remap renumber rest

(* The instances and net names with the nets numbered as the design has
   them: ports' nets first, in port order, then first mention in instance
   order. [port_nets] holds each port's interned id. Interning follows
   that order unless a port came after an instance; only then do the
   connection lists change. *)
let numbered t port_nets =
  let in_order = ref true in
  Array.iteri (fun i id -> if id <> i then in_order := false) port_nets;
  if !in_order then (Array.sub t.instances 0 t.instance_count, t.net_names)
  else begin
    let renumber = Array.make t.net_count (-1) in
    Array.iteri (fun i id -> renumber.(id) <- i) port_nets;
    let next = ref (Array.length port_nets) in
    for i = 0 to t.instance_count - 1 do
      next := number renumber !next t.instances.(i).Design.connections
    done;
    let names = Array.make t.net_count "" in
    Array.iteri (fun id final -> names.(final) <- t.net_names.(id)) renumber;
    ( Array.init t.instance_count (fun i ->
          let inst = t.instances.(i) in
          { inst with
            Design.connections = remap renumber inst.Design.connections }),
      names )
  end

let freeze t =
  let fail fmt = Format.kasprintf failwith ("Builder.freeze(%s): " ^^ fmt) t.design_name in
  let ports = Array.of_list (List.rev t.ports) in
  let port_nets =
    Array.map (fun p -> Names.find t.net_ids p.Design.port_name) ports
  in
  let instances, names = numbered t port_nets in
  let net_count = t.net_count in
  (* Every data/control input pin must be connected. The same walk sums
     each net's pin capacitance, in instance then connection order. *)
  let pin_cap = Array.make net_count 0.0 in
  Array.iter
    (fun inst ->
       let pins = inst.Design.cell.Hb_cell.Cell.pins in
       (match unconnected_input inst.Design.connections pins with
        | Some pin ->
          fail "instance %s: input pin %s unconnected" inst.Design.inst_name pin
        | None -> ());
       add_pin_caps pin_cap pins inst.Design.connections)
    instances;
  (* Endpoints are consed from the last instance and the last connection
     back, then the ports', so each list reads ports first, then pins in
     instance and connection order. *)
  let drivers = Array.make net_count [] in
  let loads = Array.make net_count [] in
  let rec gather i cell = function
    | [] -> ()
    | (name, net) :: rest ->
      gather i cell rest;
      let endpoint = Design.Pin { inst = i; pin = name } in
      if is_input (pin_record name cell.Hb_cell.Cell.pins) then
        loads.(net) <- endpoint :: loads.(net)
      else drivers.(net) <- endpoint :: drivers.(net)
  in
  for i = Array.length instances - 1 downto 0 do
    gather i instances.(i).Design.cell instances.(i).Design.connections
  done;
  (* Port [i] is on net [i]: port names are unique and numbered first. *)
  for i = Array.length ports - 1 downto 0 do
    match ports.(i).Design.direction with
    | Design.Port_in -> drivers.(i) <- Design.Port i :: drivers.(i)
    | Design.Port_out -> loads.(i) <- Design.Port i :: loads.(i)
  done;
  let is_tristate_pin = function
    | Design.Pin { inst; pin = _ } ->
      (match instances.(inst).Design.cell.Hb_cell.Cell.kind with
       | Hb_cell.Kind.Sync Hb_cell.Kind.Tristate_driver -> true
       | Hb_cell.Kind.Sync _ | Hb_cell.Kind.Comb _ -> false)
    | Design.Port _ -> false
  in
  (* An output port's net carries no other port, so an undriven output
     port fails here as a net without a driver. *)
  let nets =
    Array.init net_count (fun i ->
        match drivers.(i) with
        | [] -> fail "net %s has no driver" names.(i)
        | _ :: _ :: _ when not (List.for_all is_tristate_pin drivers.(i)) ->
          fail "net %s has multiple non-tristate drivers" names.(i)
        | net_drivers ->
          { Design.net_name = names.(i);
            drivers = net_drivers;
            loads = loads.(i);
            load_capacitance =
              pin_cap.(i)
              +. (wire_capacitance_per_load
                  *. float_of_int (List.length loads.(i)));
          })
  in
  Design.unsafe_make ~design_name:t.design_name ~instances ~nets ~ports
