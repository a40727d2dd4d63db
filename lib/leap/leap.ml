module C = Ormp_lmad.Compressor
module Vec = Ormp_util.Vec
module Tm = Ormp_telemetry.Telemetry

(* Instrumented only on the rare arms: a stream opening or dropping, an
   LMAD descriptor opening or discarding a point. The Extended arm — the
   per-access common case — stays untouched. *)
let m_streams_opened = Tm.Metrics.counter "leap.streams_opened"
let m_streams_dropped = Tm.Metrics.counter "leap.streams_dropped"
let m_dropped_accesses = Tm.Metrics.counter "leap.dropped_accesses"
let m_lmad_opened = Tm.Metrics.counter "leap.lmad.opened"
let m_lmad_discarded = Tm.Metrics.counter "leap.lmad.discarded"

type key = { instr : int; group : int }

type span = { mutable t_first : int; mutable t_last : int }

type stream = { comp : C.t; spans : span Vec.t; off : C.t; mutable dspan : span option }

type profile = {
  streams : (key * stream) list;
  store_instrs : (int, bool) Hashtbl.t;
  collected : int;
  wild : int;
  dropped_streams : int;
  dropped_accesses : int;
  elapsed : float;
}

(* The compressor can close-and-reopen descriptors internally (carrying a
   partial iteration over), so placement indices may skip ahead of the span
   table; pad with spans anchored at the current time — the carried points
   are always recent. *)
let span_at stream idx ~time =
  while Vec.length stream.spans <= idx do
    Vec.push stream.spans { t_first = time; t_last = time }
  done;
  Vec.get stream.spans idx

(* Feed one (object, offset) point through both compressors using the
   packed-code entry points: the common arms (extend, over-budget discard)
   allocate nothing — the only steady-state allocation left in a stream is
   a span record per descriptor. *)
let record2 stream ~time ~obj ~offset =
  let code = C.add2_code stream.comp obj offset in
  let tag = C.code_tag code in
  (if tag = C.code_extended then (span_at stream (C.code_index code) ~time).t_last <- time
   else if tag = C.code_opened then begin
     if Tm.on () then Tm.Metrics.incr m_lmad_opened;
     ignore (span_at stream (C.code_index code) ~time)
   end
   else begin
     if Tm.on () then Tm.Metrics.incr m_lmad_discarded;
     match stream.dspan with
     | Some sp -> sp.t_last <- time
     | None -> stream.dspan <- Some { t_first = time; t_last = time }
   end);
  ignore (C.add1_code stream.off offset)

type live = {
  lv_streams : (key * stream) list;
  lv_stores : (int * bool) list;
  lv_dropped : key list;
  lv_dropped_accesses : int;
}

(* --- flat collector ---------------------------------------------------

   PR 10: the per-event tables are open-addressing int arenas
   ({!Key_table}, the PR 6 Sequitur style — no boxed keys, no polymorphic
   hashing, no per-event allocation):

   - [c_idx] maps (instr, group) -> stream slot. Admitted streams live in
     parallel slot lanes in admission order
     ([c_key_instr]/[c_key_group]/[c_strs]); slot order IS the
     first-appearance order the profile reports.
   - [c_st] maps instr -> is_store (0/1); instruction ids are arbitrary
     ints (future trace-import frontends may feed raw IPs), so this stays
     a hash table rather than a direct-indexed lane.
   - Dropped keys (only under a [max_streams] cap) get the same table for
     membership (slot = first-refusal index) plus a key Vec holding that
     order — the rare path keeps its boxed order list. *)

type collector = {
  c_idx : Key_table.t;  (* (instr, group) -> slot *)
  mutable c_key_instr : int array;  (* slot lanes, admission order *)
  mutable c_key_group : int array;
  mutable c_strs : stream array;
  mutable c_n : int;
  c_dummy : stream;  (* filler for unused [c_strs] capacity *)
  c_st : Key_table.pairs;  (* instr -> is_store (0/1) *)
  c_budget : int option;
  c_max_streams : int;
  c_d : Key_table.t;  (* refused keys -> first-refusal index *)
  c_dropped_order : key Vec.t;
  mutable c_dropped_accesses : int;
}

let[@inline] find_slot c instr group = Key_table.find c.c_idx instr group

let grow_slots c =
  let cap = Array.length c.c_strs in
  let cap' = cap * 2 in
  let ki = Array.make cap' 0 in
  let kg = Array.make cap' 0 in
  let ss = Array.make cap' c.c_dummy in
  Array.blit c.c_key_instr 0 ki 0 c.c_n;
  Array.blit c.c_key_group 0 kg 0 c.c_n;
  Array.blit c.c_strs 0 ss 0 c.c_n;
  c.c_key_instr <- ki;
  c.c_key_group <- kg;
  c.c_strs <- ss

(* Append a stream in the next admission slot, bypassing the cap (used by
   both live admission and checkpoint restore). *)
let push_stream c instr group stream =
  if c.c_n = Array.length c.c_strs then grow_slots c;
  let s = c.c_n in
  c.c_key_instr.(s) <- instr;
  c.c_key_group.(s) <- group;
  c.c_strs.(s) <- stream;
  c.c_n <- s + 1;
  Key_table.add c.c_idx instr group s;
  s

(* instr -> is_store, last write wins (exactly [Hashtbl.replace]). *)
let[@inline] set_store c instr is_store =
  Key_table.pairs_set c.c_st instr (if is_store then 1 else 0)

let stores_list c =
  let acc = ref [] in
  Key_table.pairs_iter (fun i f -> acc := (i, f = 1) :: !acc) c.c_st;
  List.sort compare !acc

(* First refusal of (instr, group): record it in the membership table and
   the order Vec. *)
let drop_key c instr group =
  Key_table.add c.c_d instr group (Vec.length c.c_dropped_order);
  Vec.push c.c_dropped_order { instr; group }

(* --- collection -------------------------------------------------------- *)

let fresh_stream c =
  {
    comp = C.create ?budget:c.c_budget ~dims:2 ();
    spans = Vec.create ();
    off = C.create ?budget:c.c_budget ~dims:1 ();
    dspan = None;
  }

let collector ?budget ?(max_streams = 0) ?restore () =
  let dummy =
    { comp = C.create ~dims:2 (); spans = Vec.create (); off = C.create ~dims:1 (); dspan = None }
  in
  let c =
    {
      c_idx = Key_table.create ();
      c_key_instr = Array.make 32 0;
      c_key_group = Array.make 32 0;
      c_strs = Array.make 32 dummy;
      c_n = 0;
      c_dummy = dummy;
      c_st = Key_table.pairs_create ();
      c_budget = budget;
      c_max_streams = max_streams;
      c_d = Key_table.create ~capacity:16 ();
      c_dropped_order = Vec.create ();
      c_dropped_accesses = 0;
    }
  in
  (match restore with
  | None -> ()
  | Some lv ->
    List.iter
      (fun ((k : key), s) ->
        if find_slot c k.instr k.group >= 0 then
          invalid_arg "Leap.collector: duplicate stream key";
        ignore (push_stream c k.instr k.group s))
      lv.lv_streams;
    List.iter (fun (i, st) -> set_store c i st) lv.lv_stores;
    List.iter
      (fun (k : key) ->
        if not (Key_table.mem c.c_d k.instr k.group) then drop_key c k.instr k.group)
      lv.lv_dropped;
    c.c_dropped_accesses <- lv.lv_dropped_accesses);
  c

(* SCC: vertical decomposition by instruction then group; each sub-stream
   is compressed online as (object, offset) points with per-descriptor
   time spans. When [max_streams] caps the table, accesses of unseen keys
   past the cap are counted but not compressed (graceful degradation under
   a memory budget); established streams keep collecting. *)
let[@inline] collect_one c ~instr ~group ~obj ~offset ~is_store ~time =
  set_store c instr is_store;
  let slot = find_slot c instr group in
  if slot >= 0 then record2 (Array.unsafe_get c.c_strs slot) ~time ~obj ~offset
  else if c.c_max_streams > 0 && c.c_n >= c.c_max_streams then begin
    if not (Key_table.mem c.c_d instr group) then begin
      drop_key c instr group;
      if Tm.on () then Tm.Metrics.incr m_streams_dropped
    end;
    c.c_dropped_accesses <- c.c_dropped_accesses + 1;
    if Tm.on () then Tm.Metrics.incr m_dropped_accesses
  end
  else begin
    let s = push_stream c instr group (fresh_stream c) in
    if Tm.on () then Tm.Metrics.incr m_streams_opened;
    record2 (Array.unsafe_get c.c_strs s) ~time ~obj ~offset
  end

let collect c (tu : Ormp_core.Tuple.t) =
  collect_one c ~instr:tu.instr ~group:tu.group ~obj:tu.obj ~offset:tu.offset
    ~is_store:tu.is_store ~time:tu.time

(* SoA lane entry points: one call per chunk, no per-tuple boxing. Stamps
   are [time0 + i] (CDC chunks carry consecutive stamps). *)
let collect_lanes c ~instr ~group ~obj ~offset ~store ~time0 ~len =
  for i = 0 to len - 1 do
    collect_one c
      ~instr:(Array.unsafe_get instr i)
      ~group:(Array.unsafe_get group i)
      ~obj:(Array.unsafe_get obj i)
      ~offset:(Array.unsafe_get offset i)
      ~is_store:(Array.unsafe_get store i <> 0)
      ~time:(time0 + i)
  done

let collect_tuples c (tp : Ormp_core.Cdc.tuples) =
  collect_lanes c ~instr:tp.tp_instr ~group:tp.tp_group ~obj:tp.tp_obj ~offset:tp.tp_offset
    ~store:tp.tp_store ~time0:tp.tp_time0 ~len:tp.tp_len

let stream_count c = c.c_n

let ordered_streams c =
  List.init c.c_n (fun s ->
      ({ instr = c.c_key_instr.(s); group = c.c_key_group.(s) }, c.c_strs.(s)))

let live c =
  {
    lv_streams = ordered_streams c;
    lv_stores = stores_list c;
    lv_dropped = List.rev (Vec.fold_left (fun acc k -> k :: acc) [] c.c_dropped_order);
    lv_dropped_accesses = c.c_dropped_accesses;
  }

let finish c ~collected ~wild ~elapsed =
  if Tm.on () then begin
    let set name v = Tm.Metrics.set (Tm.Metrics.gauge name) (float_of_int v) in
    set "leap.streams" c.c_n;
    set "leap.dropped_streams" (Key_table.length c.c_d);
    set "leap.dropped_accesses.total" c.c_dropped_accesses
  end;
  let store_instrs = Hashtbl.create 64 in
  List.iter (fun (i, st) -> Hashtbl.replace store_instrs i st) (stores_list c);
  {
    streams = ordered_streams c;
    store_instrs;
    collected;
    wild;
    dropped_streams = Key_table.length c.c_d;
    dropped_accesses = c.c_dropped_accesses;
    elapsed;
  }

let make_cdc ?grouping ?budget ~site_name () =
  let c = collector ?budget () in
  let cdc = Ormp_core.Cdc.create ?grouping ~site_name ~on_tuple:(collect c) () in
  let finalize ~elapsed =
    Ormp_core.Omc.publish_gauges (Ormp_core.Cdc.omc cdc);
    finish c ~collected:(Ormp_core.Cdc.collected cdc) ~wild:(Ormp_core.Cdc.wild cdc) ~elapsed
  in
  (cdc, c, finalize)

let sink ?grouping ?budget ~site_name () =
  let cdc, _, finalize = make_cdc ?grouping ?budget ~site_name () in
  (Ormp_core.Cdc.sink cdc, finalize)

(* The batched sink consumes SoA tuple chunks directly — one callback and
   zero tuple boxing per chunk, instead of one [Tuple.t] per access. *)
let sink_batched ?grouping ?budget ~site_name () =
  let c = collector ?budget () in
  let cdc = Ormp_core.Cdc.create ?grouping ~site_name ~on_tuple:(collect c) () in
  let batch = Ormp_core.Cdc.batch_tuples cdc ~on_tuples:(collect_tuples c) () in
  let finalize ~elapsed =
    Ormp_core.Omc.publish_gauges (Ormp_core.Cdc.omc cdc);
    finish c ~collected:(Ormp_core.Cdc.collected cdc) ~wild:(Ormp_core.Cdc.wild cdc) ~elapsed
  in
  (batch, finalize)

let profile ?config ?grouping ?budget program =
  let b, finalize = sink_batched ?grouping ?budget ~site_name:(Printf.sprintf "site%d") () in
  let result = Ormp_vm.Runner.run_batched ?config program b in
  finalize ~elapsed:result.Ormp_vm.Runner.elapsed

let instrs p = List.sort_uniq compare (List.map (fun (k, _) -> k.instr) p.streams)

let is_store p instr = Option.value ~default:false (Hashtbl.find_opt p.store_instrs instr)

let loads p = List.filter (fun i -> not (is_store p i)) (instrs p)
let stores p = List.filter (is_store p) (instrs p)

let streams_of p instr = List.filter (fun (k, _) -> k.instr = instr) p.streams

(* Sorted-lane lookup for the post-processors: freeze the stream list once
   and answer (instr, group) probes by binary search, with no per-probe key
   allocation (the old [List.assoc_opt { instr; group }] pattern allocated
   a key record per probe and scanned the whole list). *)
let stream_index p =
  let arr = Array.of_list p.streams in
  Array.sort
    (fun ((a : key), _) ((b : key), _) ->
      if a.instr <> b.instr then compare a.instr b.instr else compare a.group b.group)
    arr;
  fun ~instr ~group ->
    let lo = ref 0 in
    let hi = ref (Array.length arr) in
    let res = ref None in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let k, s = arr.(mid) in
      if k.instr < instr || (k.instr = instr && k.group < group) then lo := mid + 1
      else if k.instr = instr && k.group = group then begin
        res := Some s;
        lo := !hi
      end
      else hi := mid
    done;
    !res

let instr_total p instr =
  List.fold_left (fun acc (_, s) -> acc + C.total s.comp) 0 (streams_of p instr)

let byte_size p =
  List.fold_left
    (fun acc (k, s) ->
      let span_bytes =
        Vec.fold_left
          (fun b sp -> b + Ormp_util.Bytesize.of_ints [ sp.t_first; sp.t_last ])
          0 s.spans
      in
      acc + Ormp_util.Bytesize.of_ints [ k.instr; k.group ] + C.byte_size s.comp
      + C.byte_size s.off + span_bytes)
    0 p.streams

let compression_ratio p =
  let trace = p.collected * Ormp_util.Bytesize.fixed_record in
  let prof = byte_size p in
  if prof = 0 then 0.0 else float_of_int trace /. float_of_int prof

let accesses_captured p =
  (* Measured on the offset sub-streams, matching the paper's "fraction of
     all memory accesses ... captured by LMADs at the level of offsets
     inside objects (not including the timing information)". *)
  let cap, tot =
    List.fold_left
      (fun (c, t) (_, s) -> (c + C.captured s.off, t + C.total s.off))
      (0, 0) p.streams
  in
  if tot = 0 then 0.0 else float_of_int cap /. float_of_int tot

(* The effective descriptors of a stream: every captured LMAD with its
   time span, plus — when the stream overflowed — one pseudo-descriptor
   built from the min/max/granularity summary (the "overall information"
   §4.1 says the compressor keeps for what it discards): a box lattice
   stepping by the granularity in each dimension. The count is the number
   of iterations the descriptor stands for, which for the summary box is
   the discarded count, not the (usually much larger) box size. *)
let descriptors (s : stream) =
  let module L = Ormp_lmad.Lmad in
  let lmads = Array.of_list (C.lmads s.comp) in
  (* A descriptor freshly re-opened by the compressor's carry-over may not
     have a span entry yet; anchor it at the latest time the stream saw. *)
  let span_of i =
    if i < Vec.length s.spans then Vec.get s.spans i
    else
      let t =
        if Vec.length s.spans > 0 then (Vec.get s.spans (Vec.length s.spans - 1)).t_last else 0
      in
      { t_first = t; t_last = t }
  in
  let base =
    List.init (Array.length lmads) (fun i -> (lmads.(i), span_of i, L.size lmads.(i)))
  in
  match (C.summary s.comp, s.dspan) with
  | Some sum, Some sp ->
    let dims = Array.length sum.C.min_v in
    let levels =
      List.concat
        (List.init dims (fun d ->
             let extent = sum.C.max_v.(d) - sum.C.min_v.(d) in
             if extent = 0 then []
             else
               let g = sum.C.granularity.(d) in
               (* All discarded points are congruent modulo the per-dim
                  granularity, so it divides the extent; gran 0 with a
                  positive extent cannot happen. *)
               let stride = Array.init dims (fun i -> if i = d then g else 0) in
               [ { L.stride; count = (extent / g) + 1 } ]))
    in
    let pseudo = L.of_levels ~start:sum.C.min_v ~levels in
    base @ [ (pseudo, { t_first = sp.t_first; t_last = sp.t_last }, sum.C.discarded) ]
  | _ -> base

let instructions_captured p =
  let is = instrs p in
  if is = [] then 0.0
  else
    let full =
      List.filter
        (fun i -> List.for_all (fun (_, s) -> C.fully_captured s.off) (streams_of p i))
        is
    in
    float_of_int (List.length full) /. float_of_int (List.length is)
