type t = {
  last_writer : (int, int) Hashtbl.t; (* address -> store instruction *)
  conflicts : (int * int, int) Hashtbl.t; (* (store, load) -> count *)
  execs : (int, int) Hashtbl.t; (* load instruction -> executions *)
}

let create () =
  { last_writer = Hashtbl.create 4096; conflicts = Hashtbl.create 256; execs = Hashtbl.create 64 }

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let access t ~instr ~addr ~size:_ ~is_store =
  if is_store then Hashtbl.replace t.last_writer addr instr
  else begin
    bump t.execs instr;
    match Hashtbl.find_opt t.last_writer addr with
    | Some st -> bump t.conflicts (st, instr)
    | None -> ()
  end

let batch t =
  Ormp_trace.Batch.create
    ~on_chunk:(fun c -> Ormp_trace.Batch.iter c (access t))
    ~on_event:ignore ()

let load_execs t load = Option.value ~default:0 (Hashtbl.find_opt t.execs load)

let deps t =
  Hashtbl.fold
    (fun (store, load) count acc ->
      let total = load_execs t load in
      if total = 0 then acc
      else { Dep_types.store; load; freq = float_of_int count /. float_of_int total } :: acc)
    t.conflicts []
  |> List.sort (fun a b -> compare (a.Dep_types.store, a.load) (b.Dep_types.store, b.load))

let locations t = Hashtbl.length t.last_writer

let profile ?config program =
  let t = create () in
  ignore (Ormp_vm.Runner.run_batched ?config program (batch t));
  t
