type per_instr = {
  mutable last_addr : int option;
  mutable execs : int;
  stride_counts : (int, int) Hashtbl.t;
}

type t = { instrs : (int, per_instr) Hashtbl.t }

let create () = { instrs = Hashtbl.create 64 }

let per t instr =
  match Hashtbl.find_opt t.instrs instr with
  | Some p -> p
  | None ->
    let p = { last_addr = None; execs = 0; stride_counts = Hashtbl.create 16 } in
    Hashtbl.replace t.instrs instr p;
    p

let access t ~instr ~addr ~size:_ ~is_store:_ =
  let p = per t instr in
  p.execs <- p.execs + 1;
  (match p.last_addr with
  | Some prev ->
    let stride = addr - prev in
    Hashtbl.replace p.stride_counts stride
      (1 + Option.value ~default:0 (Hashtbl.find_opt p.stride_counts stride))
  | None -> ());
  p.last_addr <- Some addr

let batch t =
  Ormp_trace.Batch.create
    ~on_chunk:(fun c -> Ormp_trace.Batch.iter c (access t))
    ~on_event:ignore ()

let strides t instr =
  match Hashtbl.find_opt t.instrs instr with
  | None -> []
  | Some p ->
    Hashtbl.fold (fun s c acc -> (s, c) :: acc) p.stride_counts []
    |> List.sort (fun (_, c1) (_, c2) -> compare c2 c1)

let execs t instr =
  match Hashtbl.find_opt t.instrs instr with None -> 0 | Some p -> p.execs

let strongly_strided ?(threshold = 0.7) t =
  Hashtbl.fold
    (fun instr p acc ->
      if p.execs < 2 then acc
      else
        let total = p.execs - 1 in
        let dominant =
          Hashtbl.fold
            (fun s c best ->
              match best with Some (_, bc) when bc >= c -> best | _ -> Some (s, c))
            p.stride_counts None
        in
        match dominant with
        | Some (s, c) when float_of_int c >= threshold *. float_of_int total -> (instr, s) :: acc
        | _ -> acc)
    t.instrs []
  |> List.sort compare
