type port_direction = Port_in | Port_out

type port = {
  port_name : string;
  direction : port_direction;
  is_clock : bool;
}

type endpoint =
  | Pin of { inst : int; pin : string }
  | Port of int

type instance = {
  inst_name : string;
  cell : Hb_cell.Cell.t;
  connections : (string * int) list;
  module_path : string;
}

type net = {
  net_name : string;
  drivers : endpoint list;
  loads : endpoint list;
  load_capacitance : float;
}

type t = {
  design_name : string;
  instances : instance array;
  nets : net array;
  ports : port array;
  port_net : int array;
}

let instance_count t = Array.length t.instances
let net_count t = Array.length t.nets
let port_count t = Array.length t.ports
let instance t i = t.instances.(i)
let net t i = t.nets.(i)
let port t i = t.ports.(i)

let net_of_pin t ~inst ~pin =
  List.assoc_opt pin t.instances.(inst).connections

let net_of_port t port_id =
  if port_id < 0 || port_id >= Array.length t.port_net then None
  else
    let net = t.port_net.(port_id) in
    if net < 0 then None else Some net

let find_by_name get count t name =
  let rec loop i =
    if i >= count t then None
    else if String.equal (get t i) name then Some i
    else loop (i + 1)
  in
  loop 0

let find_instance =
  find_by_name (fun t i -> t.instances.(i).inst_name) instance_count

let find_port = find_by_name (fun t i -> t.ports.(i).port_name) port_count
let find_net = find_by_name (fun t i -> t.nets.(i).net_name) net_count

let filter_instances predicate t =
  let acc = ref [] in
  for i = Array.length t.instances - 1 downto 0 do
    if predicate t.instances.(i) then acc := i :: !acc
  done;
  !acc

let sync_instances t =
  filter_instances (fun inst -> Hb_cell.Kind.is_sync inst.cell.Hb_cell.Cell.kind) t

let comb_instances t =
  filter_instances (fun inst -> Hb_cell.Kind.is_comb inst.cell.Hb_cell.Cell.kind) t

let clock_ports t =
  let acc = ref [] in
  for i = Array.length t.ports - 1 downto 0 do
    if t.ports.(i).is_clock then acc := i :: !acc
  done;
  !acc

let pp_endpoint t ppf = function
  | Pin { inst; pin } ->
    Format.fprintf ppf "%s.%s" t.instances.(inst).inst_name pin
  | Port p -> Format.fprintf ppf "port %s" t.ports.(p).port_name

let endpoint_to_string t e = Format.asprintf "%a" (pp_endpoint t) e

(* Record net [i] against every port among [endpoints] that no lower net
   claimed. *)
let rec claim_ports port_net i = function
  | [] -> ()
  | Port p :: rest ->
    if port_net.(p) < 0 then port_net.(p) <- i;
    claim_ports port_net i rest
  | Pin _ :: rest -> claim_ports port_net i rest

let unsafe_make ~design_name ~instances ~nets ~ports =
  (* One walk in net order, so a port on several nets maps to the lowest,
     as a first-match scan over the nets would find it. *)
  let port_net = Array.make (Array.length ports) (-1) in
  for i = 0 to Array.length nets - 1 do
    claim_ports port_net i nets.(i).drivers;
    claim_ports port_net i nets.(i).loads
  done;
  { design_name; instances; nets; ports; port_net }

let unsafe_update t ~instances ~nets = { t with instances; nets }
