module Ri = Ormp_interval.Range_index
module Seq_c = Ormp_sequitur.Sequitur
module L = Ormp_lmad.Lmad
module C = Ormp_lmad.Compressor

let ( let* ) = Result.bind

let rec check_all = function
  | [] -> Ok ()
  | f :: rest ->
    let* () = f () in
    check_all rest

let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* --- Sequitur grammars ------------------------------------------------ *)

type rules = (int * [ `T of int | `N of int ] list) list

let grammar_rules ?input_length ?(max_duplicate_digrams = 0) (rules : rules) =
  (* Acyclic, fully defined, no rule twice, and expanding to exactly the
     pushed sequence's length (checked at the end). *)
  let* n = Seq_c.expansion_length ~bound:(Option.value input_length ~default:max_int) rules in
  (* Rule utility: every non-start rule is referenced at least twice
     (otherwise Sequitur would have inlined it). *)
  let refs = Hashtbl.create 64 in
  List.iter
    (fun (_, rhs) ->
      List.iter
        (function
          | `N r -> Hashtbl.replace refs r (1 + Option.value ~default:0 (Hashtbl.find_opt refs r))
          | `T _ -> ())
        rhs)
    rules;
  let* () =
    check_all
      (List.map
         (fun (id, rhs) () ->
           if id <> 0 && Option.value ~default:0 (Hashtbl.find_opt refs id) < 2 then
             errf "rule R%d used %d time(s), utility requires 2" id
               (Option.value ~default:0 (Hashtbl.find_opt refs id))
           else if id <> 0 && List.length rhs < 2 then
             errf "rule R%d has %d symbol(s), rules describe digrams or longer" id
               (List.length rhs)
           else Ok ())
         rules)
  in
  (* Digram uniqueness: no pair of adjacent symbols occurs twice in the
     grammar, except the overlapping occurrence a run of equal symbols
     produces ("aaa" holds digram aa at positions 0 and 1, which share
     the middle symbol — the classic algorithm leaves those alone).
     [max_duplicate_digrams] tolerates that many violations: our
     Sequitur validates digram-index hits lazily, so a stale index
     entry can cost one missed match whose duplicate then survives in
     the final grammar (documented in the compressor; rediscovered on
     the next repetition, so duplicates stay rare). *)
  let digrams = Hashtbl.create 256 in
  let duplicates = ref 0 in
  let first_dup = ref None in
  let* () =
    check_all
      (List.map
         (fun (id, rhs) () ->
           let arr = Array.of_list rhs in
           for p = 0 to Array.length arr - 2 do
             let d = (arr.(p), arr.(p + 1)) in
             match Hashtbl.find_opt digrams d with
             | Some (r0, p0) when not (r0 = id && p = p0 + 1) ->
               incr duplicates;
               if !first_dup = None then first_dup := Some (r0, p0, id, p)
             | _ -> Hashtbl.replace digrams d (id, p)
           done;
           match !first_dup with
           | Some (r0, p0, rd, pd) when !duplicates > max_duplicate_digrams ->
             errf "%d repeated digram(s) (first: R%d position %d and R%d position %d)"
               !duplicates r0 p0 rd pd
           | _ -> Ok ())
         rules)
  in
  match input_length with
  | Some len when len <> n -> errf "expansion length %d, input length %d" n len
  | _ ->
    (* Unreferenced non-start rules escape the expansion; refs caught them
       above (0 uses < 2), so nothing more to check. *)
    Ok ()

let grammar g =
  let* () = Seq_c.check_invariants g in
  (* Tolerate roughly one lazily-missed digram match per 512 grammar
     symbols (and always at least 2): stale-index misses scale with how
     much relinking the input forced, i.e. with grammar size. *)
  let tolerance = max 2 (Seq_c.grammar_size g / 512) in
  grammar_rules ~input_length:(Seq_c.input_length g) ~max_duplicate_digrams:tolerance
    (Seq_c.rules g)

(* --- LMADs and compressors ------------------------------------------- *)

let lmad ?dims (d : L.t) =
  let n = Array.length d.L.start in
  let* () =
    match dims with
    | Some expect when expect <> n -> errf "LMAD dims %d, stream dims %d" n expect
    | _ -> Ok ()
  in
  check_all
    (List.map
       (fun (lv : L.level) () ->
         if Array.length lv.L.stride <> n then
           errf "LMAD level stride dims %d, start dims %d" (Array.length lv.L.stride) n
         else if lv.L.count < 2 then errf "LMAD level count %d < 2" lv.L.count
         else Ok ())
       d.L.levels)

(* Budget respected, every LMAD well-formed at the stream dimensionality,
   captured/discarded accounting consistent, summary present iff points
   were discarded and its box ordered (min <= max) with non-negative
   granularity. *)
let compressor (c : C.t) =
  let st = C.state c and lmads = C.lmads c and discarded = C.discarded c in
  let dims = st.C.s_dims and budget = st.C.s_budget and total = st.C.s_total in
  let* () = if dims < 1 then errf "compressor dims %d < 1" dims else Ok () in
  let* () = if budget < 1 then errf "compressor budget %d < 1" budget else Ok () in
  let n = List.length lmads in
  let* () = if n > budget then errf "%d LMADs exceed budget %d" n budget else Ok () in
  let* () = check_all (List.map (fun d () -> lmad ~dims d) lmads) in
  let* () =
    if discarded < 0 || discarded > total then
      errf "discarded %d outside [0, total %d]" discarded total
    else Ok ()
  in
  let captured = total - discarded in
  let described = List.fold_left (fun acc d -> acc + L.size d) 0 lmads in
  let* () =
    if described > captured then
      errf "LMADs describe %d points but only %d were captured" described captured
    else Ok ()
  in
  match (C.summary c, discarded) with
  | None, 0 -> Ok ()
  | None, d -> errf "%d points discarded but no summary" d
  | Some _, 0 -> Error "summary present but nothing was discarded"
  | Some s, d ->
    if s.C.discarded <> d then
      errf "summary counts %d discarded, compressor %d" s.C.discarded d
    else if
      Array.length s.C.min_v <> dims
      || Array.length s.C.max_v <> dims
      || Array.length s.C.granularity <> dims
    then Error "summary dimensionality mismatch"
    else begin
      let bad = ref (Ok ()) in
      for i = 0 to dims - 1 do
        if !bad = Ok () then
          if s.C.min_v.(i) > s.C.max_v.(i) then
            bad := errf "summary box dim %d: min %d > max %d" i s.C.min_v.(i) s.C.max_v.(i)
          else if s.C.granularity.(i) < 0 then
            bad := errf "summary granularity dim %d negative" i
      done;
      !bad
    end

(* --- LEAP streams and profiles ---------------------------------------- *)

(* Per-stream LEAP invariants: both compressors valid, point stream
   2-dimensional and offset stream 1-dimensional with equal totals, one
   time span per LMAD, spans internally ordered (t_first <= t_last) and
   non-overlapping across creation order, discard span present iff
   accesses were discarded. *)
let leap_stream (s : Ormp_leap.Leap.stream) =
  let* () = compressor s.Ormp_leap.Leap.comp in
  let* () = compressor s.Ormp_leap.Leap.off in
  let pc = C.state s.Ormp_leap.Leap.comp and po = C.state s.Ormp_leap.Leap.off in
  let* () = if pc.C.s_dims <> 2 then errf "point stream dims %d <> 2" pc.C.s_dims else Ok () in
  let* () = if po.C.s_dims <> 1 then errf "offset stream dims %d <> 1" po.C.s_dims else Ok () in
  let* () =
    if pc.C.s_total <> po.C.s_total then
      errf "point stream saw %d accesses, offset stream %d" pc.C.s_total po.C.s_total
    else Ok ()
  in
  let nspans = Ormp_util.Vec.length s.Ormp_leap.Leap.spans in
  let nlmads = List.length (C.lmads s.Ormp_leap.Leap.comp) in
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
    (fun i (sp : Ormp_leap.Leap.span) ->
      if !bad = Ok () then
        if sp.t_first > sp.t_last then
          bad := errf "span %d: t_first %d > t_last %d" i sp.t_first sp.t_last
        else if sp.t_first < !prev_last then
          bad := errf "span %d begins @t%d before span %d ended @t%d" i sp.t_first (i - 1) !prev_last
        else prev_last := sp.t_last)
    s.Ormp_leap.Leap.spans;
  let* () = !bad in
  match (s.Ormp_leap.Leap.dspan, C.discarded s.Ormp_leap.Leap.comp) with
  | None, 0 -> Ok ()
  | None, d -> errf "%d accesses discarded but no discard span" d
  | Some _, 0 -> Error "discard span present but nothing was discarded"
  | Some sp, _ ->
    if sp.t_first > sp.t_last then
      errf "discard span: t_first %d > t_last %d" sp.t_first sp.t_last
    else Ok ()

let leap_profile (p : Ormp_leap.Leap.profile) =
  let* () =
    check_all
      (List.map
         (fun ({ Ormp_leap.Leap.instr; group }, s) () ->
           match leap_stream s with
           | Ok () -> Ok ()
           | Error e -> errf "stream (i%d, g%d): %s" instr group e)
         p.Ormp_leap.Leap.streams)
  in
  let total =
    List.fold_left
      (fun acc (_, s) -> acc + C.total s.Ormp_leap.Leap.comp)
      0 p.Ormp_leap.Leap.streams
  in
  let* () =
    (* A budget-capped session routes accesses for dropped streams past the
       compressors entirely; those are accounted in [dropped_accesses]. *)
    if total + p.Ormp_leap.Leap.dropped_accesses <> p.Ormp_leap.Leap.collected then
      errf "streams hold %d accesses (+%d dropped), profile collected %d" total
        p.Ormp_leap.Leap.dropped_accesses p.Ormp_leap.Leap.collected
    else Ok ()
  in
  check_all
    (List.map
       (fun ({ Ormp_leap.Leap.instr; _ }, _) () ->
         if Hashtbl.mem p.Ormp_leap.Leap.store_instrs instr then Ok ()
         else errf "instruction i%d has a stream but no load/store record" instr)
       p.Ormp_leap.Leap.streams)

(* --- OMC object lifetimes ---------------------------------------------- *)

let objects ?groups (lts : Ormp_core.Omc.lifetime list) =
  let module O = Ormp_core.Omc in
  (* Per-group serial density and list-order alloc-time monotonicity. *)
  let next_serial = Hashtbl.create 64 in
  let* () =
    check_all
      (List.map
         (fun (l : O.lifetime) () ->
           let expect = Option.value ~default:0 (Hashtbl.find_opt next_serial l.O.group) in
           if l.O.serial <> expect then
             errf "group g%d: serial %d out of order, expected %d" l.O.group l.O.serial expect
           else begin
             Hashtbl.replace next_serial l.O.group (expect + 1);
             Ok ()
           end)
         lts)
  in
  let* () =
    let prev = ref min_int in
    check_all
      (List.map
         (fun (l : O.lifetime) () ->
           if l.O.alloc_time < !prev then
             errf "object g%d#%d allocated @t%d after a later allocation @t%d" l.O.group
               l.O.serial l.O.alloc_time !prev
           else begin
             prev := l.O.alloc_time;
             Ok ()
           end)
         lts)
  in
  let* () =
    check_all
      (List.map
         (fun (l : O.lifetime) () ->
           match (l.O.free_time, l.O.free_site) with
           | Some ft, _ when ft < l.O.alloc_time ->
             errf "object g%d#%d freed @t%d before allocation @t%d" l.O.group l.O.serial ft
               l.O.alloc_time
           | None, Some _ -> errf "object g%d#%d has a free site but no free time" l.O.group l.O.serial
           | _ -> Ok ())
         lts)
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
    check_all
      (List.map
         (fun (_, k, (l : O.lifetime)) () ->
           if k = 0 then begin
             ignore (Ri.remove idx ~base:l.O.base);
             Ok ()
           end
           else
             match Ri.insert idx ~base:l.O.base ~size:l.O.size l with
             | () -> Ok ()
             | exception Invalid_argument _ ->
               errf "object g%d#%d [%#x, +%d) overlaps another live object" l.O.group
                 l.O.serial l.O.base l.O.size)
         events)
  in
  match groups with
  | None -> Ok ()
  | Some gs ->
    let module O = Ormp_core.Omc in
    let counts = Hashtbl.create 64 in
    List.iter
      (fun (l : O.lifetime) ->
        Hashtbl.replace counts l.O.group
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts l.O.group)))
      lts;
    let* () =
      check_all
        (List.mapi
           (fun i (g : O.group_info) () ->
             if g.O.gid <> i then errf "group ids not dense: slot %d holds g%d" i g.O.gid
             else if g.O.population <> Option.value ~default:0 (Hashtbl.find_opt counts g.O.gid)
             then
               errf "group g%d population %d, but %d objects recorded" g.O.gid g.O.population
                 (Option.value ~default:0 (Hashtbl.find_opt counts g.O.gid))
             else Ok ())
           gs)
    in
    check_all
      (List.map
         (fun (l : O.lifetime) () ->
           if l.O.group < 0 || l.O.group >= List.length gs then
             errf "object references unknown group g%d" l.O.group
           else Ok ())
         lts)

let omc (o : Ormp_core.Omc.t) =
  objects ~groups:(Ormp_core.Omc.groups o) (Ormp_core.Omc.lifetimes o)

(* --- whole profiles ---------------------------------------------------- *)

(* A profile's grammar, valid and holding the [count] its profile records
   under [field]. *)
let counted name g ~field ~count =
  let* () = match grammar g with Ok () -> Ok () | Error e -> errf "%s grammar: %s" name e in
  let n = Seq_c.input_length g in
  if n <> count then errf "%s grammar holds %d symbols, profile %s %d" name n field count
  else Ok ()

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
    check_all
      (List.map
         (fun (name, g) () -> counted name g ~field:"collected" ~count:p.W.collected)
         p.W.dims)
  in
  objects ~groups:p.W.groups p.W.lifetimes

let rasg_profile (p : Ormp_whomp.Rasg.profile) =
  counted "rasg" p.Ormp_whomp.Rasg.grammar ~field:"accesses" ~count:p.Ormp_whomp.Rasg.accesses
