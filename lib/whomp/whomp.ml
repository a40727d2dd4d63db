module Seq_c = Ormp_sequitur.Sequitur
module Tm = Ormp_telemetry.Telemetry

(* Publish per-grammar gauges at finalize; the session layer also routes
   its RASG baseline through this so all five grammar dimensions show up
   in one metrics snapshot. *)
let publish_dim_gauges dims =
  if Tm.on () then
    List.iter
      (fun (name, g) ->
        let set suffix v =
          Tm.Metrics.set
            (Tm.Metrics.gauge (Printf.sprintf "sequitur.%s.%s" name suffix))
            (float_of_int v)
        in
        set "symbols" (Seq_c.grammar_size g);
        set "rules" (Seq_c.rule_count g);
        set "input" (Seq_c.input_length g))
      dims

type profile = {
  dims : (string * Seq_c.t) list;
  collected : int;
  wild : int;
  groups : Ormp_core.Omc.group_info list;
  lifetimes : Ormp_core.Omc.lifetime list;
  elapsed : float;
}

type collector = {
  g_instr : Seq_c.t;
  g_group : Seq_c.t;
  g_object : Seq_c.t;
  g_offset : Seq_c.t;
}

let collector ?restore () =
  match restore with
  | Some (g_instr, g_group, g_object, g_offset) -> { g_instr; g_group; g_object; g_offset }
  | None ->
    {
      g_instr = Seq_c.create ();
      g_group = Seq_c.create ();
      g_object = Seq_c.create ();
      g_offset = Seq_c.create ();
    }

(* SCC: horizontal decomposition straight into the four compressors. *)
let collect c (tu : Ormp_core.Tuple.t) =
  Seq_c.push c.g_instr tu.instr;
  Seq_c.push c.g_group tu.group;
  Seq_c.push c.g_object tu.obj;
  Seq_c.push c.g_offset tu.offset

let collector_dims c =
  [ ("instr", c.g_instr); ("group", c.g_group); ("object", c.g_object); ("offset", c.g_offset) ]

let make_finalize c cdc =
  let finalize ~elapsed =
    publish_dim_gauges (collector_dims c);
    Ormp_core.Omc.publish_gauges (Ormp_core.Cdc.omc cdc);
    {
      dims = collector_dims c;
      collected = Ormp_core.Cdc.collected cdc;
      wild = Ormp_core.Cdc.wild cdc;
      groups = Ormp_core.Omc.groups (Ormp_core.Cdc.omc cdc);
      lifetimes = Ormp_core.Omc.lifetimes (Ormp_core.Cdc.omc cdc);
      elapsed;
    }
  in
  finalize

let sink ~site_name () =
  let c = collector () in
  let cdc = Ormp_core.Cdc.create ~site_name ~on_tuple:(collect c) () in
  (Ormp_core.Cdc.sink cdc, make_finalize c cdc)

(* The batched sink skips the per-tuple [collect] entirely: whole SoA chunk
   lanes go straight into each dimension's compressor via [push_batch].
   Symbol order per grammar is identical to the per-tuple path, so the
   profile is byte-identical — only the call and allocation overhead per
   event changes. *)
let collect_tuples c (tp : Ormp_core.Cdc.tuples) =
  Seq_c.push_batch c.g_instr tp.tp_instr ~off:0 ~len:tp.tp_len;
  Seq_c.push_batch c.g_group tp.tp_group ~off:0 ~len:tp.tp_len;
  Seq_c.push_batch c.g_object tp.tp_obj ~off:0 ~len:tp.tp_len;
  Seq_c.push_batch c.g_offset tp.tp_offset ~off:0 ~len:tp.tp_len

let sink_batched ?grouping ~site_name () =
  let c = collector () in
  let cdc = Ormp_core.Cdc.create ?grouping ~site_name ~on_tuple:(collect c) () in
  let b = Ormp_core.Cdc.batch_tuples cdc ~on_tuples:(collect_tuples c) () in
  (b, make_finalize c cdc)

let profile ?config ?grouping program =
  (* Sites are named after the fact via the table the run produces, so the
     CDC resolves names lazily through this reference. *)
  let table = ref None in
  let site_name site =
    match !table with
    | None -> Printf.sprintf "site%d" site
    | Some t -> (Ormp_trace.Instr.info t site).Ormp_trace.Instr.name
  in
  let b, finalize = sink_batched ?grouping ~site_name () in
  let result = Ormp_vm.Runner.run_batched ?config program b in
  table := Some result.Ormp_vm.Runner.table;
  finalize ~elapsed:result.Ormp_vm.Runner.elapsed

let omsg_size p = List.fold_left (fun acc (_, g) -> acc + Seq_c.grammar_size g) 0 p.dims

let omsg_bytes p = List.fold_left (fun acc (_, g) -> acc + Seq_c.byte_size g) 0 p.dims

let expand p =
  let dim name = Seq_c.expand (List.assoc name p.dims) in
  let instrs = dim "instr" and groups = dim "group" in
  let objects = dim "object" and offsets = dim "offset" in
  let n = Array.length instrs in
  assert (Array.length groups = n && Array.length objects = n && Array.length offsets = n);
  List.init n (fun i ->
      {
        Ormp_core.Tuple.instr = instrs.(i);
        group = groups.(i);
        obj = objects.(i);
        offset = offsets.(i);
        time = i;
        is_store = false;
      })
