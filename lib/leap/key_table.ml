(* lint:hot-path *)

(* Open-addressing int-keyed tables for the LEAP collector arenas, in the
   PR 6 Sequitur style: interleaved int columns, linear probing, a -1
   sentinel in the payload column marking an empty bucket, load kept at or
   below one half, and the same multiplicative finalizer as the Sequitur
   digram index. Keys are never deleted, so there are no tombstones; both
   tables are self-contained (keys live in the buckets), so growth
   re-inserts from the old buckets without touching caller state. *)

let[@inline] mix k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

let[@inline] hash2 a b = mix ((a lsl 31) lxor b)

(* --- (a, b) -> slot triplet table -------------------------------------- *)

type t = { mutable data : int array; mutable mask : int; mutable n : int }

let create ?(capacity = 64) () =
  let cap = ref 16 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  { data = Array.make (3 * !cap) (-1); mask = !cap - 1; n = 0 }

let length t = t.n

(* Slot bound to (a, b), or -1. The slot column is read first: an empty
   bucket ends the probe without looking at its (garbage) key columns. *)
let[@inline] find t a b =
  let mask = t.mask in
  let data = t.data in
  let i = ref (hash2 a b land mask) in
  let r = ref (-2) in
  while !r = -2 do
    let base = 3 * !i in
    let s = Array.unsafe_get data (base + 2) in
    if s < 0 then r := -1
    else if Array.unsafe_get data base = a && Array.unsafe_get data (base + 1) = b then r := s
    else i := (!i + 1) land mask
  done;
  !r

let[@inline] mem t a b = find t a b >= 0

let write t a b slot =
  let mask = t.mask in
  let data = t.data in
  let i = ref (hash2 a b land mask) in
  while Array.unsafe_get data ((3 * !i) + 2) >= 0 do
    i := (!i + 1) land mask
  done;
  let base = 3 * !i in
  data.(base) <- a;
  data.(base + 1) <- b;
  data.(base + 2) <- slot

let grow t =
  let old = t.data in
  let old_cap = t.mask + 1 in
  t.data <- Array.make (3 * 2 * old_cap) (-1);
  t.mask <- (2 * old_cap) - 1;
  for i = 0 to old_cap - 1 do
    let base = 3 * i in
    if old.(base + 2) >= 0 then write t old.(base) old.(base + 1) old.(base + 2)
  done

(* Bind (a, b) -> slot; the key must be absent. *)
let add t a b slot =
  if 2 * (t.n + 1) > t.mask + 1 then grow t;
  write t a b slot;
  t.n <- t.n + 1

(* --- k -> v pair table ------------------------------------------------- *)

type pairs = { mutable pdata : int array; mutable pmask : int; mutable pn : int }

let pairs_create ?(capacity = 64) () =
  let cap = ref 16 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  { pdata = Array.make (2 * !cap) (-1); pmask = !cap - 1; pn = 0 }

let pairs_write t k v =
  let mask = t.pmask in
  let data = t.pdata in
  let i = ref (mix k land mask) in
  while Array.unsafe_get data ((2 * !i) + 1) >= 0 do
    i := (!i + 1) land mask
  done;
  let base = 2 * !i in
  data.(base) <- k;
  data.(base + 1) <- v

let pairs_grow t =
  let old = t.pdata in
  let old_cap = t.pmask + 1 in
  t.pdata <- Array.make (2 * 2 * old_cap) (-1);
  t.pmask <- (2 * old_cap) - 1;
  for i = 0 to old_cap - 1 do
    let base = 2 * i in
    if old.(base + 1) >= 0 then pairs_write t old.(base) old.(base + 1)
  done

(* Bind k -> v, last write wins (Hashtbl.replace semantics). *)
let pairs_set t k v =
  let mask = t.pmask in
  let data = t.pdata in
  let i = ref (mix k land mask) in
  let go = ref true in
  while !go do
    let base = 2 * !i in
    let cur = Array.unsafe_get data (base + 1) in
    if cur < 0 then begin
      go := false;
      if 2 * (t.pn + 1) > t.pmask + 1 then begin
        pairs_grow t;
        pairs_write t k v
      end
      else begin
        data.(base) <- k;
        data.(base + 1) <- v
      end;
      t.pn <- t.pn + 1
    end
    else if Array.unsafe_get data base = k then begin
      Array.unsafe_set data (base + 1) v;
      go := false
    end
    else i := (!i + 1) land mask
  done

let pairs_iter f t =
  let cap = t.pmask + 1 in
  for i = 0 to cap - 1 do
    let base = 2 * i in
    if t.pdata.(base + 1) >= 0 then f t.pdata.(base) t.pdata.(base + 1)
  done
