type t = {
  tuples : Ormp_core.Tuple.t array;
  lifetimes : Ormp_core.Omc.lifetime list;
  groups : Ormp_core.Omc.group_info list;
  table : Ormp_trace.Instr.table;
  wild : int;
}

let run ?config ?grouping program =
  let buf = Ormp_util.Vec.create () in
  let cdc =
    Ormp_core.Cdc.create ?grouping
      ~site_name:(Printf.sprintf "site%d")
      ~on_tuple:(Ormp_util.Vec.push buf)
      ()
  in
  let result = Ormp_vm.Runner.run_batched ?config program (Ormp_core.Cdc.batch cdc) in
  let omc = Ormp_core.Cdc.omc cdc in
  {
    tuples = Ormp_util.Vec.to_array buf;
    lifetimes = Ormp_core.Omc.lifetimes omc;
    groups = Ormp_core.Omc.groups omc;
    table = result.Ormp_vm.Runner.table;
    wild = Ormp_core.Cdc.wild cdc;
  }

let size_of t ~group ~obj =
  match
    List.find_opt
      (fun (l : Ormp_core.Omc.lifetime) -> l.group = group && l.serial = obj)
      t.lifetimes
  with
  | Some l -> l.size
  | None -> raise Not_found

let instr_name t i = (Ormp_trace.Instr.info t.table i).Ormp_trace.Instr.name
