(* lint:hot-path *)
(* Flat sorted-interval lanes (PR 10). The old AVL tree allocated a boxed
   node per range and a [Some (base, size, v)] tuple per query; the OMC
   translates hundreds of accesses per allocation event, so queries must
   be allocation-free. Ranges now live in three parallel lanes sorted by
   base — [bases], [sizes], [values] — searched with a branch-minimal
   binary search ([find_idx]) and mutated with memmove-style shifts.
   Inserts/removes are O(n) but ride the rare alloc/free path; the
   [generation] counter (bumped on every mutation) lets callers cache
   lane indices (the OMC's packed-int MRU) and invalidate them with one
   compare instead of a pointer chase. *)

type 'a t = {
  mutable bases : int array;
  mutable sizes : int array;
  mutable values : 'a array;  (* dummy-filled past [count] with a live 'a *)
  mutable count : int;
  mutable high_water : int;
  mutable generation : int;
}

let create () =
  {
    bases = [||];
    sizes = [||];
    values = [||];
    count = 0;
    high_water = 0;
    generation = 0;
  }

let cardinal t = t.count
let max_live t = t.high_water
let generation t = t.generation

(* Index of the greatest base <= addr, or -1. The loop halves a
   [len]-wide window in place; the only data-dependent branch is the
   window-advance compare, which compiles to a conditional add. *)
let[@inline] pred_idx t addr =
  let bases = t.bases in
  let off = ref 0 in
  let len = ref t.count in
  while !len > 1 do
    let half = !len asr 1 in
    if Array.unsafe_get bases (!off + half) <= addr then off := !off + half;
    len := !len - half
  done;
  if t.count > 0 && Array.unsafe_get bases !off <= addr then !off else -1

let[@inline] find_idx t addr =
  let i = pred_idx t addr in
  if i >= 0 && addr - Array.unsafe_get t.bases i < Array.unsafe_get t.sizes i
  then i
  else -1

let[@inline] idx_base t i = Array.unsafe_get t.bases i
let[@inline] idx_size t i = Array.unsafe_get t.sizes i
let[@inline] idx_value t i = Array.unsafe_get t.values i

let find t addr =
  let i = find_idx t addr in
  if i < 0 then None else Some (t.bases.(i), t.sizes.(i), t.values.(i))

let mem t addr = find_idx t addr >= 0

let find_nearest_below t addr =
  let i = pred_idx t addr in
  if i < 0 then None else Some (t.bases.(i), t.sizes.(i), t.values.(i))

let find_nearest_above t addr =
  let i = pred_idx t addr + 1 in
  if i >= t.count then None else Some (t.bases.(i), t.sizes.(i), t.values.(i))

let overlap_msg base size b s =
  "Range_index.insert: [" ^ string_of_int base ^ ","
  ^ string_of_int (base + size)
  ^ ") overlaps live range [" ^ string_of_int b ^ ","
  ^ string_of_int (b + s) ^ ")"

let grow t value =
  let cap = Array.length t.bases in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let bases = Array.make cap' 0 in
  let sizes = Array.make cap' 0 in
  let values = Array.make cap' value in
  Array.blit t.bases 0 bases 0 t.count;
  Array.blit t.sizes 0 sizes 0 t.count;
  Array.blit t.values 0 values 0 t.count;
  t.bases <- bases;
  t.sizes <- sizes;
  t.values <- values

let insert t ~base ~size value =
  if size <= 0 then invalid_arg "Range_index.insert: size must be positive";
  let p = pred_idx t base in
  (* Predecessor may reach into [base, base+size); successor may start
     before base+size. Sortedness + disjointness make these the only two
     candidates. *)
  if p >= 0 && t.bases.(p) + t.sizes.(p) > base then
    invalid_arg (overlap_msg base size t.bases.(p) t.sizes.(p));
  let at = p + 1 in
  if at < t.count && base + size > t.bases.(at) then
    invalid_arg (overlap_msg base size t.bases.(at) t.sizes.(at));
  if t.count = Array.length t.bases then grow t value;
  let tail = t.count - at in
  if tail > 0 then begin
    Array.blit t.bases at t.bases (at + 1) tail;
    Array.blit t.sizes at t.sizes (at + 1) tail;
    Array.blit t.values at t.values (at + 1) tail
  end;
  t.bases.(at) <- base;
  t.sizes.(at) <- size;
  t.values.(at) <- value;
  t.count <- t.count + 1;
  t.generation <- t.generation + 1;
  if t.count > t.high_water then t.high_water <- t.count

let remove t ~base =
  let i = pred_idx t base in
  if i < 0 || t.bases.(i) <> base then false
  else begin
    let tail = t.count - i - 1 in
    if tail > 0 then begin
      Array.blit t.bases (i + 1) t.bases i tail;
      Array.blit t.sizes (i + 1) t.sizes i tail;
      Array.blit t.values (i + 1) t.values i tail
    end;
    t.count <- t.count - 1;
    (* Drop the vacated slot's reference so the GC can reclaim it; reuse
       an existing live value as the filler. *)
    if t.count > 0 then t.values.(t.count) <- t.values.(0);
    t.generation <- t.generation + 1;
    true
  end

let iter t f =
  for i = 0 to t.count - 1 do
    f ~base:t.bases.(i) ~size:t.sizes.(i) t.values.(i)
  done

let check_invariants t =
  let exception Bad of string in
  try
    if t.count < 0 || t.count > Array.length t.bases then
      raise (Bad "count out of bounds");
    if Array.length t.sizes <> Array.length t.bases
       || Array.length t.values <> Array.length t.bases
    then raise (Bad "lane lengths disagree");
    for i = 0 to t.count - 1 do
      if t.sizes.(i) <= 0 then raise (Bad "non-positive size");
      if i > 0 then begin
        if t.bases.(i - 1) >= t.bases.(i) then
          raise (Bad "in-order bases not increasing");
        if t.bases.(i - 1) + t.sizes.(i - 1) > t.bases.(i) then
          raise (Bad "in-order ranges overlap")
      end
    done;
    if t.high_water < t.count then raise (Bad "high_water below count");
    Ok ()
  with Bad msg -> Error msg
