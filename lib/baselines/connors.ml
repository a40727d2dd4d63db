type t = {
  window : int;
  last_store : (int, int * int) Hashtbl.t; (* address -> (store instr, store seq) *)
  conflicts : (int * int, int) Hashtbl.t;
  execs : (int, int) Hashtbl.t;
  mutable store_seq : int; (* stores executed so far *)
}

let default_window = 4096

let create ?(window = default_window) () =
  if window <= 0 then invalid_arg "Connors.create: window must be positive";
  {
    window;
    last_store = Hashtbl.create 4096;
    conflicts = Hashtbl.create 256;
    execs = Hashtbl.create 64;
    store_seq = 0;
  }

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let access t ~instr ~addr ~size:_ ~is_store =
  if is_store then begin
    t.store_seq <- t.store_seq + 1;
    Hashtbl.replace t.last_store addr (instr, t.store_seq)
  end
  else begin
    bump t.execs instr;
    match Hashtbl.find_opt t.last_store addr with
    | Some (st, seq) when seq > t.store_seq - t.window ->
      (* The matching store is still inside the history window. *)
      bump t.conflicts (st, instr)
    | _ -> ()
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

let profile ?config ?window program =
  let t = create ?window () in
  ignore (Ormp_vm.Runner.run_batched ?config program (batch t));
  t
