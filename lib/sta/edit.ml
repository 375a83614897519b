module Design = Hb_netlist.Design

type t =
  | Set_delay of { instance : string; rise : float; fall : float }
  | Scale_delay of { instance : string; factor : float }
  | Annotate of Annotation.t
  | Set_offset of { element : int; offset : Hb_util.Time.t }
  | Insert_buffer of {
      net : string;
      cell : Hb_cell.Cell.t;
      inst_name : string option;
      net_name : string option;
    }
  | Resize_gate of { instance : string; cell : Hb_cell.Cell.t }
  | Remove_gate of { instance : string }
  | Rewire_net of { instance : string; pin : string; net : string }

let op_name = function
  | Set_delay _ -> "set_delay"
  | Scale_delay _ -> "scale_delay"
  | Annotate _ -> "annotate"
  | Set_offset _ -> "set_offset"
  | Insert_buffer _ -> "insert_buffer"
  | Resize_gate _ -> "resize_gate"
  | Remove_gate _ -> "remove_gate"
  | Rewire_net _ -> "rewire_net"

(* Conservative superset of the nets whose delays or capacitances feed
   some synchroniser's control-delay trace (Control.cone_of_net walks
   drivers backward through combinational gates). We mark the control
   pin nets, then for every combinational gate driving a marked net,
   mark all of its connection nets — output-net capacitance shifts the
   cone delay, so siblings count too — and recurse through the gate's
   inputs. Structural edits are rejected anywhere in this set so
   control arrival times never change under ECO. *)
let control_nets design =
  let n = Design.net_count design in
  let marked = Array.make n false in
  let rec mark net =
    if net < n && not marked.(net) then begin
      marked.(net) <- true;
      List.iter
        (function
          | Design.Pin { inst; pin = _ } ->
            let record = Design.instance design inst in
            if Hb_cell.Kind.is_comb record.Design.cell.Hb_cell.Cell.kind
            then
              List.iter (fun (_, peer) -> mark peer)
                record.Design.connections
          | Design.Port _ -> ())
        (Design.net design net).Design.drivers
    end
  in
  List.iter
    (fun inst ->
       let record = Design.instance design inst in
       List.iter
         (fun (pin, net) ->
            match Hb_cell.Cell.find_pin record.Design.cell pin with
            | Some { Hb_cell.Cell.role = Hb_cell.Cell.Control_in; _ } ->
              mark net
            | Some _ | None -> ())
         record.Design.connections)
    (Design.sync_instances design);
  marked
