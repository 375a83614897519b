type change = {
  inst : int;
  inst_name : string;
  old_cell : string;
  new_cell : string;
}

let upsize_instances design ~library ~instances =
  List.filter_map
    (fun inst ->
       let record = Hb_netlist.Design.instance design inst in
       let cell = record.Hb_netlist.Design.cell in
       if Hb_cell.Kind.is_comb cell.Hb_cell.Cell.kind then
         Option.map
           (fun (faster : Hb_cell.Cell.t) ->
              { inst;
                inst_name = record.Hb_netlist.Design.inst_name;
                old_cell = cell.Hb_cell.Cell.name;
                new_cell = faster.Hb_cell.Cell.name })
           (Hb_cell.Library.upsize library cell)
       else None)
    (List.sort_uniq compare instances)
