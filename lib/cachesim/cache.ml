type config = { size_bytes : int; line_bytes : int; ways : int }

let l1d = { size_bytes = 16 * 1024; line_bytes = 64; ways = 4 }

type t = {
  config : config;
  sets : int;
  line_shift : int;
  (* tags.(set).(way); lru.(set).(way) = last-use stamp *)
  tags : int array array;
  lru : int array array;
  mutable clock : int;
  mutable accesses : int;
  mutable hits : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k v = if v = 1 then k else go (k + 1) (v / 2) in
  go 0 n

let create config =
  if not (is_pow2 config.line_bytes) then invalid_arg "Cache.create: line size not a power of two";
  if config.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  let sets = config.size_bytes / (config.line_bytes * config.ways) in
  if sets <= 0 || not (is_pow2 sets) then
    invalid_arg "Cache.create: size / (line * ways) must be a positive power of two";
  {
    config;
    sets;
    line_shift = log2 config.line_bytes;
    tags = Array.init sets (fun _ -> Array.make config.ways (-1));
    lru = Array.init sets (fun _ -> Array.make config.ways 0);
    clock = 0;
    accesses = 0;
    hits = 0;
  }

let touch_line t line =
  t.clock <- t.clock + 1;
  let set = line land (t.sets - 1) in
  let tags = t.tags.(set) and lru = t.lru.(set) in
  let ways = t.config.ways in
  let rec find w = if w >= ways then None else if tags.(w) = line then Some w else find (w + 1) in
  match find 0 with
  | Some w ->
    lru.(w) <- t.clock;
    true
  | None ->
    (* evict the least recently used way *)
    let victim = ref 0 in
    for w = 1 to ways - 1 do
      if lru.(w) < lru.(!victim) then victim := w
    done;
    tags.(!victim) <- line;
    lru.(!victim) <- t.clock;
    false

let access t ~addr ~size =
  if size <= 0 then invalid_arg "Cache.access: size must be positive";
  t.accesses <- t.accesses + 1;
  let first = addr lsr t.line_shift in
  let last = (addr + size - 1) lsr t.line_shift in
  let hit = ref true in
  for line = first to last do
    if not (touch_line t line) then hit := false
  done;
  if !hit then t.hits <- t.hits + 1;
  !hit

let accesses t = t.accesses
let hits t = t.hits
let misses t = t.accesses - t.hits

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int (misses t) /. float_of_int t.accesses
