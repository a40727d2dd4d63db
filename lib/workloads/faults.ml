module E = Ormp_vm.Engine

type defect = Uaf | Oob | Double_free | Leak | Wild

let all = [ Uaf; Oob; Double_free; Leak; Wild ]

(* Probe an address range the simulated program never maps: start well
   above the heap segment and skip over any block that happens to live
   there. *)
let unmapped_addr e =
  let rec go addr =
    match Ormp_memsim.Allocator.block_at (E.allocator e) addr with
    | None -> addr
    | Some (base, size) -> go (base + size + 0x10000)
  in
  go 0x7fff_0000

let plant e defects =
  let has d = List.mem d defects in
  (* Allocate every victim before planting any defect: a later allocation
     could reuse a freed victim's address range, which (correctly) evicts
     it from the sanitizer's graveyard and would mask the planted fault. *)
  let uaf_victim =
    if has Uaf then
      let site = E.instr e ~name:"fault:uaf-alloc" Ormp_trace.Instr.Alloc_site in
      Some (site, E.alloc e ~site 64)
    else None
  and df_victim =
    if has Double_free then
      let site = E.instr e ~name:"fault:df-alloc" Ormp_trace.Instr.Alloc_site in
      Some (E.alloc e ~site 64)
    else None
  and oob_victim =
    if has Oob then
      let site = E.instr e ~name:"fault:oob-alloc" Ormp_trace.Instr.Alloc_site in
      (* 57 bytes: the 16-byte-aligned reserved extent is 64, so offsets
         57..63 are outside the object yet inside its own reservation —
         guaranteed not to land in a neighbouring live object. *)
      Some (E.alloc e ~site 57)
    else None
  in
  if has Leak then begin
    let site = E.instr e ~name:"fault:leak-alloc" Ormp_trace.Instr.Alloc_site in
    ignore (E.alloc e ~site 48)
  end;
  (match uaf_victim with
  | None -> ()
  | Some (_, v) ->
    let fsite = E.instr e ~name:"fault:uaf-free" Ormp_trace.Instr.Free_site in
    let load = E.instr e ~name:"fault:uaf-load" Ormp_trace.Instr.Load in
    E.free e ~site:fsite v;
    E.load_raw e ~instr:load (E.addr v + 24));
  (match df_victim with
  | None -> ()
  | Some v ->
    let fsite = E.instr e ~name:"fault:df-free" Ormp_trace.Instr.Free_site in
    let refree = E.instr e ~name:"fault:df-refree" Ormp_trace.Instr.Free_site in
    E.free e ~site:fsite v;
    E.free_raw e ~site:refree (E.addr v));
  (match oob_victim with
  | None -> ()
  | Some v ->
    let load = E.instr e ~name:"fault:oob-load" Ormp_trace.Instr.Load in
    E.load_raw e ~instr:load (E.addr v + 60));
  if has Wild then begin
    let load = E.instr e ~name:"fault:wild-load" Ormp_trace.Instr.Load in
    E.load_raw e ~instr:load (unmapped_addr e)
  end

let inject ?(defects = all) (p : Ormp_vm.Program.t) =
  Ormp_vm.Program.make
    ~name:(p.name ^ "+faults")
    ~description:(p.description ^ " (with planted memory defects)")
    ~statics:p.statics
    (fun e ->
      p.run e;
      plant e defects)

(* --- process-level faults (supervisor / session validation) ----------- *)

exception Injected_crash of string

let crashing (p : Ormp_vm.Program.t) =
  Ormp_vm.Program.make
    ~name:(p.name ^ "+crash")
    ~description:(p.description ^ " (raises after its body completes)")
    ~statics:p.statics
    (fun e ->
      p.run e;
      raise (Injected_crash (p.name ^ " injected crash")))

let hanging ?(period = 64) (p : Ormp_vm.Program.t) =
  Ormp_vm.Program.make
    ~name:(p.name ^ "+hang")
    ~description:(p.description ^ " (never terminates after its body)")
    ~statics:p.statics
    (fun e ->
      p.run e;
      (* Keep emitting events forever: a hang that stays inside the probe
         stream is observable by cooperative cancellation (OCaml domains
         cannot be killed from outside), unlike a silent spin. *)
      let site = E.instr e ~name:"fault:hang-alloc" Ormp_trace.Instr.Alloc_site in
      let load = E.instr e ~name:"fault:hang-load" Ormp_trace.Instr.Load in
      let words = max 1 (period / 8) in
      let v = E.alloc e ~site (words * 8) in
      let i = ref 0 in
      while true do
        E.load e ~instr:load v (!i mod words * 8);
        incr i
      done)

(* --- injected I/O faults (journal / checkpoint durability) ------------ *)

module Io = struct
  exception Torn_write of string
  exception No_space of string
  exception Killed of int

  type plan = {
    torn_write : int option;
    no_space : int option;
    kill_at_checkpoint : int option;
  }

  let none = { torn_write = None; no_space = None; kill_at_checkpoint = None }

  type t = { plan : plan; mutable writes : int; mutable checkpoints : int }

  let create plan = { plan; writes = 0; checkpoints = 0 }

  let write t oc s =
    t.writes <- t.writes + 1;
    (match t.plan.no_space with
    | Some n when t.writes = n -> raise (No_space (Printf.sprintf "injected ENOSPC at write %d" n))
    | _ -> ());
    match t.plan.torn_write with
    | Some n when t.writes = n ->
      (* Flush the first half to the descriptor so the file really is torn
         on disk, exactly as a mid-write crash leaves it. *)
      output_string oc (String.sub s 0 (String.length s / 2));
      flush oc;
      raise (Torn_write (Printf.sprintf "injected torn write at write %d" n))
    | _ -> output_string oc s

  let checkpoint_written t =
    t.checkpoints <- t.checkpoints + 1;
    match t.plan.kill_at_checkpoint with
    | Some n when t.checkpoints = n -> raise (Killed n)
    | _ -> ()
end

(* --- injected wire faults (ormp serve / client robustness) ------------- *)

module Net = struct
  type plan = {
    torn_frame : int option;
    disconnect_before : int option;
    slow_frame : int option;
    dup_retry : int option;
  }

  let none =
    { torn_frame = None; disconnect_before = None; slow_frame = None; dup_retry = None }

  type action = Send | Torn | Slow | Disconnect

  type t = { plan : plan; mutable frames : int; mutable rewound : bool }

  let create plan = { plan; frames = 0; rewound = false }

  (* The frame counter runs across reconnects, and each fault matches one
     exact ordinal, so every planned fault fires at most once even though
     the stream around it is re-sent. *)
  let next_frame t =
    t.frames <- t.frames + 1;
    if t.plan.disconnect_before = Some t.frames then Disconnect
    else if t.plan.torn_frame = Some t.frames then Torn
    else if t.plan.slow_frame = Some t.frames then Slow
    else Send

  let rewind t =
    match t.plan.dup_retry with
    | Some n when not t.rewound ->
      t.rewound <- true;
      n
    | _ -> 0
end
