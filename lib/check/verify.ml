module Ri = Ormp_interval.Range_index
module C = Ormp_lmad.Compressor
module Leap = Ormp_leap.Leap
module O = Ormp_core.Omc

let ( let* ) = Result.bind

(* The first [Error] of [f] over [xs], in order. *)
let rec each f = function
  | [] -> Ok ()
  | x :: rest ->
    let* () = f x in
    each f rest

let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* --- LEAP streams and profiles ---------------------------------------- *)

(* Per-stream LEAP invariants, beyond what each compressor's constructor
   guarantees: point stream 2-dimensional and offset stream 1-dimensional
   with equal totals, at most one time span per LMAD, spans internally
   ordered (t_first <= t_last) and non-overlapping across creation order,
   discard span present iff accesses were discarded. *)
let leap_stream (s : Leap.stream) =
  let pc = C.state s.Leap.comp and po = C.state s.Leap.off in
  let* () = if pc.C.s_dims <> 2 then errf "point stream dims %d <> 2" pc.C.s_dims else Ok () in
  let* () = if po.C.s_dims <> 1 then errf "offset stream dims %d <> 1" po.C.s_dims else Ok () in
  let* () =
    if pc.C.s_total <> po.C.s_total then
      errf "point stream saw %d accesses, offset stream %d" pc.C.s_total po.C.s_total
    else Ok ()
  in
  let nspans = Ormp_util.Vec.length s.Leap.spans in
  let nlmads = List.length (C.lmads s.Leap.comp) in
  (* The compressor can close-and-reopen a descriptor internally without
     reporting a placement for it, so the span table may run one short of
     the descriptor list; [Leap.descriptors] pads the tail. More spans
     than descriptors is always wrong. *)
  let* () =
    if nspans > nlmads then errf "%d time spans for %d LMADs" nspans nlmads else Ok ()
  in
  let bad = ref (Ok ()) in
  let prev_last = ref min_int in
  Ormp_util.Vec.iteri
    (fun i (sp : Leap.span) ->
      if !bad = Ok () then
        if sp.t_first > sp.t_last then
          bad := errf "span %d: t_first %d > t_last %d" i sp.t_first sp.t_last
        else if sp.t_first < !prev_last then
          bad := errf "span %d begins @t%d before span %d ended @t%d" i sp.t_first (i - 1) !prev_last
        else prev_last := sp.t_last)
    s.Leap.spans;
  let* () = !bad in
  match (s.Leap.dspan, C.discarded s.Leap.comp) with
  | None, 0 -> Ok ()
  | None, d -> errf "%d accesses discarded but no discard span" d
  | Some _, 0 -> Error "discard span present but nothing was discarded"
  | Some sp, _ ->
    if sp.t_first > sp.t_last then
      errf "discard span: t_first %d > t_last %d" sp.t_first sp.t_last
    else Ok ()

let leap_streams streams =
  let seen = Hashtbl.create 64 in
  each
    (fun ({ Leap.instr; group } as k, s) ->
      if Hashtbl.mem seen k then errf "stream (i%d, g%d) twice" instr group
      else begin
        Hashtbl.replace seen k ();
        Result.map_error (Printf.sprintf "stream (i%d, g%d): %s" instr group) (leap_stream s)
      end)
    streams

let leap_profile (p : Leap.profile) =
  let* () = leap_streams p.Leap.streams in
  let total = List.fold_left (fun acc (_, s) -> acc + C.total s.Leap.comp) 0 p.Leap.streams in
  let* () =
    (* A budget-capped session routes accesses for dropped streams past the
       compressors entirely; those are accounted in [dropped_accesses]. *)
    if total + p.Leap.dropped_accesses <> p.Leap.collected then
      errf "streams hold %d accesses (+%d dropped), profile collected %d" total
        p.Leap.dropped_accesses p.Leap.collected
    else Ok ()
  in
  each
    (fun ({ Leap.instr; _ }, _) ->
      if Hashtbl.mem p.Leap.store_instrs instr then Ok ()
      else errf "instruction i%d has a stream but no load/store record" instr)
    p.Leap.streams

(* --- OMC object lifetimes ---------------------------------------------- *)

let objects ?groups (lts : O.lifetime list) =
  (* Per-group serial density, list-order alloc-time monotonicity, and
     each object's own free record. *)
  let next_serial = Hashtbl.create 64 and prev = ref min_int in
  let* () =
    each
      (fun (l : O.lifetime) ->
        let expect = Option.value ~default:0 (Hashtbl.find_opt next_serial l.O.group) in
        Hashtbl.replace next_serial l.O.group (expect + 1);
        let later = !prev in
        prev := l.O.alloc_time;
        match (l.O.free_time, l.O.free_site) with
        | _ when l.O.serial <> expect ->
          errf "group g%d: serial %d out of order, expected %d" l.O.group l.O.serial expect
        | _ when l.O.alloc_time < later ->
          errf "object g%d#%d allocated @t%d after a later allocation @t%d" l.O.group l.O.serial
            l.O.alloc_time later
        | Some ft, _ when ft < l.O.alloc_time ->
          errf "object g%d#%d freed @t%d before allocation @t%d" l.O.group l.O.serial ft
            l.O.alloc_time
        | None, Some _ -> errf "object g%d#%d has a free site but no free time" l.O.group l.O.serial
        | _ -> Ok ())
      lts
  in
  (* No two objects live at the same time may overlap in address space:
     time-sweep over [alloc_time, free_time) with frees applied before
     allocations at equal times (the clock does not advance on object
     events, so free-then-reuse at one time stamp is routine). Lifetimes
     with an empty live interval cannot overlap anything and are skipped. *)
  let events =
    List.concat_map
      (fun (l : O.lifetime) ->
        match l.O.free_time with
        | Some ft when ft = l.O.alloc_time -> []
        | Some ft -> [ (l.O.alloc_time, 1, l); (ft, 0, l) ]
        | None -> [ (l.O.alloc_time, 1, l) ])
      lts
  in
  let events =
    List.stable_sort
      (fun (t1, k1, _) (t2, k2, _) ->
        let c = Int.compare t1 t2 in
        if c <> 0 then c else Int.compare k1 k2)
      events
  in
  let idx = Ri.create () in
  let* () =
    each
      (fun (_, k, (l : O.lifetime)) ->
        if k = 0 then Ok (ignore (Ri.remove idx ~base:l.O.base))
        else
          match Ri.insert idx ~base:l.O.base ~size:l.O.size l with
          | () -> Ok ()
          | exception Invalid_argument _ ->
            errf "object g%d#%d [%#x, +%d) overlaps another live object" l.O.group l.O.serial
              l.O.base l.O.size)
      events
  in
  match groups with
  | None -> Ok ()
  | Some gs ->
    let counts = Hashtbl.create 64 in
    let count g = Option.value ~default:0 (Hashtbl.find_opt counts g) in
    List.iter (fun (l : O.lifetime) -> Hashtbl.replace counts l.O.group (1 + count l.O.group)) lts;
    let* () =
      each
        (fun (i, (g : O.group_info)) ->
          if g.O.gid <> i then errf "group ids not dense: slot %d holds g%d" i g.O.gid
          else if g.O.population <> count g.O.gid then
            errf "group g%d population %d, but %d objects recorded" g.O.gid g.O.population
              (count g.O.gid)
          else Ok ())
        (List.mapi (fun i g -> (i, g)) gs)
    in
    let n = List.length gs in
    each
      (fun (l : O.lifetime) ->
        if l.O.group < 0 || l.O.group >= n then errf "object references unknown group g%d" l.O.group
        else Ok ())
      lts

(* --- whole profiles ---------------------------------------------------- *)

let whomp_profile (p : Ormp_whomp.Whomp.profile) =
  let module W = Ormp_whomp.Whomp in
  let* () =
    let names = List.map fst p.W.dims in
    let expected = [ "instr"; "group"; "object"; "offset" ] in
    if names <> expected then
      errf "dimension grammars [%s], expected [%s]" (String.concat ";" names)
        (String.concat ";" expected)
    else Ok ()
  in
  let* () =
    each
      (fun (name, g) ->
        let n = Ormp_sequitur.Sequitur.input_length g in
        if n <> p.W.collected then
          errf "%s grammar holds %d symbols, profile collected %d" name n p.W.collected
        else Ok ())
      p.W.dims
  in
  objects ~groups:p.W.groups p.W.lifetimes
