(* lint:hot-path *)

module Ri = Ormp_interval.Range_index
module Vec = Ormp_util.Vec
module Tm = Ormp_telemetry.Telemetry

(* Telemetry handles, interned once at load. Instrumentation is per-chunk
   (one clock pair and a few counter adds per translate_batch call), never
   per-access — see DESIGN.md §10. *)
let m_batch_ns = Tm.Metrics.histogram "omc.translate_batch.ns"
let m_batches = Tm.Metrics.counter "omc.batches"
let m_batch_accesses = Tm.Metrics.counter "omc.batch_accesses"

type grouping = [ `Site | `Type ]

type group_info = { gid : int; site : int; label : string; mutable population : int }

type lifetime = {
  group : int;
  serial : int;
  base : int;
  size : int;
  alloc_time : int;
  mutable free_time : int option;
  mutable free_site : int option;
}

type group_key = By_site of int | By_type of string

(* Internal group record. Labels are resolved lazily through [site_name]
   because instruction tables are typically still being filled while the
   program runs; by the time anyone asks for group metadata the table is
   complete. *)
type ginfo = { g_id : int; g_site : int; g_key : group_key; mutable g_population : int }

(* Two-way per-instruction MRU cache, packed into int lanes (PR 10). Each
   instruction owns [cache_stride] consecutive ints — five per way
   [generation; base; size; group; serial], way 0 first — so a lookup
   touches one flat array and no boxed lifetime record. An entry answers
   only while its generation equals the range index's current one: any
   insert or remove bumps that counter, invalidating every entry at once.
   Whole-cache invalidation is deliberately coarse — profiling is
   access-dominated, so two int compares on the hot path beat precise
   per-object invalidation — and it subsumes the stale-MRU liveness rule:
   a free removes the object from the index and bumps the generation, so
   a dead object can never answer for a reused address. The second way
   costs nothing on the (dominant) first-way hit and converts the common
   alternation pattern — one instruction ping-ponging between two
   objects, as in a copy loop or parent/child pointer chase — from
   guaranteed misses into hits. *)
let cache_stride = 10

type t = {
  grouping : grouping;
  site_name : int -> string;
  index : lifetime Ri.t;
  group_ids : (group_key, int) Hashtbl.t;
  group_recs : ginfo Vec.t;
  all : lifetime Vec.t;
  mutable cache : int array;  (* cache_stride ints per instruction *)
  mutable translations : int;
  mutable misses : int;
  mutable cache_hits : int;
  mutable unknown_frees : int;
}

(* Generation -1 marks a never-filled way: the index's counter starts at 0
   and only grows, so it can never match. *)
let new_cache n =
  let a = Array.make (cache_stride * n) 0 in
  for i = 0 to n - 1 do
    a.(cache_stride * i) <- -1;
    a.((cache_stride * i) + 5) <- -1
  done;
  a

let create ?(grouping = `Site) ~site_name () =
  {
    grouping;
    site_name;
    index = Ri.create ();
    group_ids = Hashtbl.create 64;
    group_recs = Vec.create ();
    all = Vec.create ();
    cache = new_cache 64;
    translations = 0;
    misses = 0;
    cache_hits = 0;
    unknown_frees = 0;
  }

let group_key t ~site ~type_name =
  match (t.grouping, type_name) with
  | `Type, Some ty -> By_type ty
  | _ -> By_site site

let group_of t ~site ~type_name =
  let key = group_key t ~site ~type_name in
  match Hashtbl.find_opt t.group_ids key with
  | Some gid -> Vec.get t.group_recs gid
  | None ->
    let gid = Vec.length t.group_recs in
    let g = { g_id = gid; g_site = site; g_key = key; g_population = 0 } in
    Hashtbl.replace t.group_ids key gid;
    Vec.push t.group_recs g;
    g

let on_alloc t ~time ~site ~addr ~size ~type_name =
  let g = group_of t ~site ~type_name in
  let lt =
    {
      group = g.g_id;
      serial = g.g_population;
      base = addr;
      size;
      alloc_time = time;
      free_time = None;
      free_site = None;
    }
  in
  g.g_population <- g.g_population + 1;
  Ri.insert t.index ~base:addr ~size lt;
  Vec.push t.all lt

let on_free ?site t ~time ~addr =
  match Ri.find t.index addr with
  | Some (base, _, lt) when base = addr ->
    lt.free_time <- Some time;
    lt.free_site <- site;
    ignore (Ri.remove t.index ~base)
  | _ -> t.unknown_frees <- t.unknown_frees + 1

let translate t addr =
  match Ri.find t.index addr with
  | Some (base, _, lt) ->
    t.translations <- t.translations + 1;
    Some (lt.group, lt.serial, addr - base)
  | None ->
    t.misses <- t.misses + 1;
    None

(* --- MRU translation cache ----------------------------------------- *)

let ensure_cache t instr =
  let n = Array.length t.cache / cache_stride in
  if instr >= n then begin
    let m = max (instr + 1) (2 * n) in
    let grown = new_cache m in
    Array.blit t.cache 0 grown 0 (cache_stride * n);
    t.cache <- grown
  end

(* Slow half of [translate_batch]'s cache lookup: try the second way,
   then the range index; either way the winner moves to way 0 and the
   previous way-0 entry is demoted.
   [b] is the instruction's lane base; on [true] the way-0 lanes hold the
   answer. The range-index probe goes through [Ri.find_idx] and the flat
   lanes, so even the fill path allocates nothing. *)
let cache_fill t gen addr b =
  let cache = t.cache in
  let base1 = Array.unsafe_get cache (b + 6) in
  if
    Array.unsafe_get cache (b + 5) = gen
    && addr - base1 >= 0
    && addr - base1 < Array.unsafe_get cache (b + 7)
  then begin
    t.translations <- t.translations + 1;
    t.cache_hits <- t.cache_hits + 1;
    for f = 0 to 4 do
      let v0 = Array.unsafe_get cache (b + f) in
      Array.unsafe_set cache (b + f) (Array.unsafe_get cache (b + 5 + f));
      Array.unsafe_set cache (b + 5 + f) v0
    done;
    true
  end
  else begin
    let idx = Ri.find_idx t.index addr in
    if idx >= 0 then begin
      t.translations <- t.translations + 1;
      Array.blit cache b cache (b + 5) 5;
      let lt = Ri.idx_value t.index idx in
      Array.unsafe_set cache b gen;
      Array.unsafe_set cache (b + 1) (Ri.idx_base t.index idx);
      Array.unsafe_set cache (b + 2) (Ri.idx_size t.index idx);
      Array.unsafe_set cache (b + 3) lt.group;
      Array.unsafe_set cache (b + 4) lt.serial;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      false
    end
  end

let translate_batch t ~instrs ~addrs ~len ~groups ~serials ~offsets =
  if
    len < 0 || len > Array.length instrs || len > Array.length addrs
    || len > Array.length groups
    || len > Array.length serials
    || len > Array.length offsets
  then invalid_arg "Omc.translate_batch: len exceeds an array";
  (* Disabled telemetry costs one atomic load and the 0L constant — no
     allocation (verified by the Gc.minor_words test in test_telemetry). *)
  let t0 = if Tm.on () then Tm.now_ns () else 0L in
  (* Bounds are validated above, once per chunk, so the loop body — which
     runs once per access — can use unchecked array operations. The cache
     is also grown once, for the chunk's largest instruction id, keeping
     the growth check off the per-access path, and the index generation is
     hoisted: nothing inside a batch mutates the index. *)
  let max_instr = ref (-1) in
  for i = 0 to len - 1 do
    let v = Array.unsafe_get instrs i in
    if v > !max_instr then max_instr := v
  done;
  if !max_instr >= 0 then ensure_cache t !max_instr;
  let cache = t.cache in
  let gen = Ri.generation t.index in
  (* Way-0 hits are counted in locals (registers) and folded into the
     per-OMC counters once per chunk; [cache_fill] maintains the counters
     itself for the slow paths. *)
  let hits = ref 0 in
  for i = 0 to len - 1 do
    let instr = Array.unsafe_get instrs i and addr = Array.unsafe_get addrs i in
    let b = cache_stride * instr in
    let base0 = Array.unsafe_get cache (b + 1) in
    if
      Array.unsafe_get cache b = gen
      && addr - base0 >= 0
      && addr - base0 < Array.unsafe_get cache (b + 2)
    then begin
      incr hits;
      Array.unsafe_set groups i (Array.unsafe_get cache (b + 3));
      Array.unsafe_set serials i (Array.unsafe_get cache (b + 4));
      Array.unsafe_set offsets i (addr - base0)
    end
    else if cache_fill t gen addr b then begin
      Array.unsafe_set groups i (Array.unsafe_get cache (b + 3));
      Array.unsafe_set serials i (Array.unsafe_get cache (b + 4));
      Array.unsafe_set offsets i (addr - Array.unsafe_get cache (b + 1))
    end
    else begin
      Array.unsafe_set groups i (-1);
      Array.unsafe_set serials i (-1);
      Array.unsafe_set offsets i (-1)
    end
  done;
  t.translations <- t.translations + !hits;
  t.cache_hits <- t.cache_hits + !hits;
  if Tm.on () then begin
    Tm.Metrics.observe m_batch_ns (Int64.to_float (Int64.sub (Tm.now_ns ()) t0));
    Tm.Metrics.incr m_batches;
    Tm.Metrics.add m_batch_accesses len
  end

let public_info t (g : ginfo) =
  let label =
    match g.g_key with By_type ty -> ty | By_site s -> t.site_name s
  in
  { gid = g.g_id; site = g.g_site; label; population = g.g_population }

let group t gid =
  if gid < 0 || gid >= Vec.length t.group_recs then invalid_arg "Omc.group: unknown group id";
  public_info t (Vec.get t.group_recs gid)

let groups t = List.rev (Vec.fold_left (fun acc g -> public_info t g :: acc) [] t.group_recs)

let lifetimes t = List.rev (Vec.fold_left (fun acc l -> l :: acc) [] t.all)

let live_objects t = Ri.cardinal t.index
let max_live_objects t = Ri.max_live t.index
let translations t = t.translations
let misses t = t.misses
let cache_hits t = t.cache_hits

let cache_hit_rate t =
  if t.translations = 0 then 0.0 else float_of_int t.cache_hits /. float_of_int t.translations

(* Publish the OMC's lifetime totals as gauges — called at finalize (rare),
   so the gauge-name interning cost does not matter. *)
let publish_gauges t =
  if Tm.on () then begin
    let set name v = Tm.Metrics.set (Tm.Metrics.gauge name) (float_of_int v) in
    set "omc.live_objects" (Ri.cardinal t.index);
    set "omc.max_live_objects" (Ri.max_live t.index);
    set "omc.translations" t.translations;
    set "omc.misses" t.misses;
    set "omc.cache_hits" t.cache_hits;
    set "omc.unknown_frees" t.unknown_frees
  end

(* --- checkpoint state ------------------------------------------------ *)

type group_state = { gs_site : int; gs_type : string option; gs_population : int }

type state = {
  s_grouping : grouping;
  s_groups : group_state list;
  s_lifetimes : lifetime list;
  s_unknown_frees : int;
}

let copy_lifetime l =
  {
    group = l.group;
    serial = l.serial;
    base = l.base;
    size = l.size;
    alloc_time = l.alloc_time;
    free_time = l.free_time;
    free_site = l.free_site;
  }

let state t =
  {
    s_grouping = t.grouping;
    s_groups =
      List.rev
        (Vec.fold_left
           (fun acc g ->
             {
               gs_site = g.g_site;
               gs_type = (match g.g_key with By_type ty -> Some ty | By_site _ -> None);
               gs_population = g.g_population;
             }
             :: acc)
           [] t.group_recs);
    s_lifetimes = List.rev (Vec.fold_left (fun acc l -> copy_lifetime l :: acc) [] t.all);
    s_unknown_frees = t.unknown_frees;
  }

let of_state ~site_name (s : state) =
  let t = create ~grouping:s.s_grouping ~site_name () in
  List.iter
    (fun gs ->
      let key = match gs.gs_type with Some ty -> By_type ty | None -> By_site gs.gs_site in
      if Hashtbl.mem t.group_ids key then invalid_arg "Omc.of_state: duplicate group key";
      let gid = Vec.length t.group_recs in
      Hashtbl.replace t.group_ids key gid;
      Vec.push t.group_recs
        { g_id = gid; g_site = gs.gs_site; g_key = key; g_population = gs.gs_population })
    s.s_groups;
  List.iter
    (fun l ->
      if l.group < 0 || l.group >= Vec.length t.group_recs then
        invalid_arg "Omc.of_state: lifetime references unknown group";
      let l = copy_lifetime l in
      Vec.push t.all l;
      (* Only live objects re-enter the range index; freed ones keep their
         record but must not answer translations. *)
      if l.free_time = None then Ri.insert t.index ~base:l.base ~size:l.size l)
    s.s_lifetimes;
  t.unknown_frees <- s.s_unknown_frees;
  t
