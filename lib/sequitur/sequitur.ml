(* Flat-arena port of the reference Sequitur algorithm (Nevill-Manning &
   Witten). The previous OCaml implementation boxed every symbol as a
   4-mutable-word record and indexed digrams through a [Hashtbl] whose
   [find_opt] allocated an option per push — per-access heap churn on the
   hottest path of the whole profiler. This rewrite stores symbols as slots
   in one interleaved int array and the digram index as an open-addressing
   table of one-word entries, so a [push] in the common no-match case
   touches no allocator at all.

   Layout:

   - Symbols are stride-4 records in one int array [sym]; a slot is the
     base offset (a multiple of 4) of its record, whose four words are
     [code] (terminal value or rule id, stored verbatim), [prv]/[nxt]
     (doubly-linked RHS list, holding slot base offsets), and [meta]. The
     four words of a symbol share one cache line (a 64-byte line holds two
     whole records), where the previous four-parallel-column layout
     touched four lines per symbol — the constraint cascade walks
     code+links+meta of the same symbol constantly, and the large
     dimension grammars (thousands of live symbols) were paying a miss per
     column. A [meta] word packs
     [rule lsl 4 | anchor lsl 3 | nonterm lsl 2 | live lsl 1 | guard].
     The anchor bit is set whenever a binding naming the slot is written;
     while it is clear, no binding names the slot, so removing the slot's
     digram needs no probe. The rule field, on nonterminals and guards
     only (0 on terminals), is the rule slot (see below) the symbol names
     or heads.
   - Arena accesses on the push path are unchecked ([Array.unsafe_get]):
     every slot that reaches them came out of [alloc_sym] below [sym_top],
     and links only ever hold such slots — [check_invariants] validates
     the link structure in tests.
   - Dead slots keep their code, tag, rule field and links frozen until
     the current push's constraint cascade has fully settled, and only
     then join the free list (threaded through [nxt]): the record
     implementation's dead records stayed intact under the GC, and the
     cascade does read through them — e.g. re-indexing a just-created
     rule's first digram after a deeper substitution already retired that
     rule. Freeing eagerly would let a recycled slot alias a dead one
     mid-cascade and change the grammar. Allocation is pop-or-bump-top.
   - Rules live in slots too: stride-4 records [guard; refs; next; prev]
     in one int array [rul], holding the guard's symbol slot, the
     reference count and the live list's links. A rule's id is its
     creation ordinal, kept in its guard's [code] and in every
     nonterminal naming it; the slot is where its storage happens to be.
     A retired rule's slot is recycled the way a symbol's is: it joins
     the rule free list (threaded through [next]) only when its dead
     guard is reclaimed after the cascade, so a rule retired mid-cascade
     stays addressable through the slot its nonterminals and its guard
     still name. Live rules are threaded in ascending id order on a ring
     headed by the start rule's slot (always 0): ids are assigned in
     ascending order, so a new rule joins at the tail, and enumeration
     walks only live rules, start rule first, with no sort and no
     allocation. So rule storage holds the live grammar's rules, not
     every rule ever created, and a live-symbol count makes the grammar
     size O(1).
   - The digram index is linear-probing open addressing over one array of
     one-word entries, [hash lsl 31 lor (slot / 4)]: 31 bits of the
     packed digram key's multiplicative hash above the slot's index, -1
     for an empty entry. The key is not stored. Every binding names a live
     slot and is keyed by that slot's current digram, so a probe whose
     hash bits match confirms the key from the arena (the slot's code and
     its successor's), and removal and growth find an entry's home from
     its hash bits alone. Removal moves later entries of the cluster back
     into the hole (backward shift), so the table holds no tombstones; it
     doubles when its live bindings reach half of it, so probes stay short
     and always terminate.
   - The push's own match (the check [push_one] makes, not one inside a
     cascade) is rewritten in place where the general path would allocate
     symbols and a rule only to free them again. A whole-rule match turns
     the digram's first slot into the nonterminal and kills only the
     pushed symbol ([substitute_top]). An extension, [N_R c] against
     [N_R c'] with R used only there, turns R's slot and guard into the
     new rule, relabels both [N_R] slots, moves the pushed [c] to the end
     of R's body and kills only [c'] ([extend]), where the general path
     allocated five symbol slots and a rule slot and freed six and one.
     Only the push level qualifies: a cascade frame may still read a slot
     that the general path kills, so reusing it would change what that
     frame reads. Both rewrites make the general path's index removals,
     checks and binds at the same points in the same order, and count the
     same [sequitur.*] events.
   - An extension usually starts a chain: while the next value continues
     the other occurrence, each push extends the same rule again.
     [push_batch] reads ahead and absorbs such a chain in one loop
     ([absorb]), one step per value, making only the changes that outlive
     the step: the relabelling, the other occurrence's next symbol moved
     into the rule, that symbol's binding removed and the rule's new
     digram bound. The three bindings keyed by the rule's id, which each
     [extend] removes and makes again, are removed once when the chain
     starts and made once, for the last id, when it ends; the index
     doubles where the general path's would.

   Symbol codes, digram keys, operation order and the digram-index binding
   semantics (single binding per key, replace overwrites, remove deletes)
   are carried over exactly from the record implementation, so the grammar
   built for any input — including packed-key collisions from oversized or
   negative terminals — is identical symbol-for-symbol, rule ids included.
   The record implementation's lookups treat a binding to a dead record as
   absent, so a binding write that would name a dead slot removes the
   key's binding instead.
   [test/sequitur_legacy.ml] keeps the old implementation alive to prove
   this property under qcheck. *)

module Tm = Ormp_telemetry.Telemetry

(* Telemetry only at the rare structural events (rule creation, retirement,
   utility inlining) — never per push, which runs once per profiled access
   across four grammar dimensions. Even the structural counts are batched:
   cascades bump plain fields on [t] and [flush_tm] publishes them once
   per [push]/[push_batch], so the domain-local store is touched a few
   times per batch instead of once per match. The enable flag is likewise
   sampled once per push entry (into [mode]) instead of per structural
   event — [Tm.on] is a cross-module atomic read the cascade would
   otherwise pay several times per match. *)
let m_matches = Tm.Metrics.counter "sequitur.matches"
let m_rules_created = Tm.Metrics.counter "sequitur.rules_created"
let m_rules_retired = Tm.Metrics.counter "sequitur.rules_retired"
let m_utility_inlines = Tm.Metrics.counter "sequitur.utility_inlines"

type t = {
  (* symbol arena: interleaved [code; prv; nxt; meta] records, slots are
     base offsets (multiples of 4) *)
  mutable sym : int array;
  mutable sym_top : int;
  mutable free_head : int;  (* free list through [nxt]; -1 = empty *)
  mutable pend : int array;  (* dead slots awaiting end-of-push reclaim *)
  mutable pend_len : int;
  mutable live_syms : int;  (* right-hand-side symbols of live rules *)
  (* rule slots: interleaved [guard; refs; next; prev] records, slots are
     base offsets (multiples of 4); the start rule's slot is 0 and heads
     the ring of live rules in ascending id order *)
  mutable rul : int array;
  mutable rul_top : int;
  mutable rul_free : int;  (* free list through [next]; -1 = empty *)
  mutable next_rule_id : int;
  mutable live_rule_count : int;
  (* digram index: open addressing, linear probing, one word per entry
     ([hash lsl 31 lor (slot / 4)], -1 = empty). The high-entropy
     grammars' indexes are the largest structures the combined profile
     holds, and the four dimension grammars share the cache when a chunk
     interleaves them, so an entry stores nothing the arena already
     holds: eight entries share a cache line. *)
  mutable dig : int array;
  mutable dig_mask : int;
  mutable dig_live : int;  (* live bindings = occupied entries *)
  mutable input_len : int;
  (* [mode_tm] while telemetry is on, sampled at each push entry, and
     [mode_wide] once a terminal outside [0, 2^30) has been pushed (set
     by [push], and by [push_batch] when the span ends); one word for
     both, so the flag costs the grammar no heap *)
  mutable mode : int;
  (* telemetry accumulators, published by [flush_tm] *)
  mutable tm_matches : int;
  mutable tm_created : int;
  mutable tm_retired : int;
  mutable tm_inlines : int;
}

let mode_tm = 1
let mode_wide = 2
let tm_on t = t.mode land mode_tm <> 0

(* Sample the telemetry flag at a push entry, keeping [mode_wide]. *)
let sample_tm t = t.mode <- (t.mode land mode_wide) lor if Tm.on () then mode_tm else 0

let flush_tm t =
  if t.tm_matches <> 0 then begin
    Tm.Metrics.add m_matches t.tm_matches;
    t.tm_matches <- 0
  end;
  if t.tm_created <> 0 then begin
    Tm.Metrics.add m_rules_created t.tm_created;
    t.tm_created <- 0
  end;
  if t.tm_retired <> 0 then begin
    Tm.Metrics.add m_rules_retired t.tm_retired;
    t.tm_retired <- 0
  end;
  if t.tm_inlines <> 0 then begin
    Tm.Metrics.add m_utility_inlines t.tm_inlines;
    t.tm_inlines <- 0
  end

(* --- symbol arena ------------------------------------------------------ *)

let tag_guard = 1
let tag_live = 2
let tag_nonterm = 4
let tag_anchor = 8

(* [meta] above the four tag bits holds the rule slot of a nonterminal or
   a guard. *)
let rule_shift = 4

let s_code t s = Array.unsafe_get t.sym s
let s_prv t s = Array.unsafe_get t.sym (s + 1)
let s_nxt t s = Array.unsafe_get t.sym (s + 2)
let s_meta t s = Array.unsafe_get t.sym (s + 3)
let set_prv t s v = Array.unsafe_set t.sym (s + 1) v
let set_nxt t s v = Array.unsafe_set t.sym (s + 2) v
let is_guard t s = s_meta t s land tag_guard <> 0
let is_live t s = s_meta t s land tag_live <> 0
let is_nonterm t s = s_meta t s land tag_nonterm <> 0

(* The rule slot a nonterminal names or a guard heads. *)
let rule_of t s = s_meta t s lsr rule_shift

(* The record implementation's [code_of]: terminals on the even codes,
   rule ids on the odd. Used for digram keys and byte-size accounting
   only: it drops bit 62 of the raw code, so two symbols are the same
   symbol when [same_sym] says so, never on equal [sym_code]s. *)
let sym_code t s =
  let c = s_code t s in
  if is_nonterm t s then (c lsl 1) lor 1 else c lsl 1

let same_sym t a b = s_code t a = s_code t b && (s_meta t a lxor s_meta t b) land tag_nonterm = 0

(* A digram-index entry holds a slot as its 31-bit index (slot / 4), and
   31 bits of its key's hash. *)
let idx_bits = 31
let idx_mask = (1 lsl idx_bits) - 1

let grow_syms t =
  let n = Array.length t.sym in
  (* Slots must fit the digram entries' slot field; 2^33 words of arena
     is 64 GiB — unreachable, but fail loud rather than pack a truncated
     slot. *)
  if n * 2 > 1 lsl (idx_bits + 2) then failwith "Sequitur: symbol arena limit";
  let b = Array.make (n * 2) 0 in
  Array.blit t.sym 0 b 0 n;
  t.sym <- b

(* Fresh symbols are self-linked, like the record implementation's
   [fresh]. No binding names a fresh slot (bindings name live slots
   only), so its anchor bit is clear. [tag] carries the kind bits and,
   for a nonterminal or a guard, the rule field. Every symbol but a guard
   sits on a live rule's right-hand side ([tag_guard] is bit 0, hence the
   branch-free count). *)
let alloc_sym t tag code =
  let s =
    match t.free_head with
    | -1 ->
      if t.sym_top = Array.length t.sym then grow_syms t;
      let s = t.sym_top in
      t.sym_top <- s + 4;
      s
    | s ->
      t.free_head <- s_nxt t s;
      s
  in
  let a = t.sym in
  Array.unsafe_set a s code;
  Array.unsafe_set a (s + 1) s;
  Array.unsafe_set a (s + 2) s;
  Array.unsafe_set a (s + 3) (tag_live lor tag);
  t.live_syms <- t.live_syms + 1 - (tag land tag_guard);
  s

(* Death clears the live bit but freezes code, kind, rule field and
   links, and only queues the slot for reclaim — see the layout comment
   on why mid-cascade reads of dead slots must keep seeing the dead
   symbol's data. A slot's binding is removed before it dies (every
   successor change goes through a [join] that removes it), so the
   anchor bit is cleared with it. *)
let mark_dead t s =
  let m = s_meta t s in
  Array.unsafe_set t.sym (s + 3) (m land lnot (tag_live lor tag_anchor));
  t.live_syms <- t.live_syms - 1 + (m land tag_guard);
  if t.pend_len = Array.length t.pend then begin
    let b = Array.make (2 * t.pend_len) 0 in
    Array.blit t.pend 0 b 0 t.pend_len;
    t.pend <- b
  end;
  Array.unsafe_set t.pend t.pend_len s;
  t.pend_len <- t.pend_len + 1

(* --- rules ------------------------------------------------------------- *)

(* Rule-slot accessors; [r] is a rule slot, never a rule id. *)
let r_guard t r = Array.unsafe_get t.rul r
let r_refs t r = Array.unsafe_get t.rul (r + 1)
let r_next t r = Array.unsafe_get t.rul (r + 2)
let r_prev t r = Array.unsafe_get t.rul (r + 3)
let set_r_refs t r v = Array.unsafe_set t.rul (r + 1) v
let set_r_next t r v = Array.unsafe_set t.rul (r + 2) v
let set_r_prev t r v = Array.unsafe_set t.rul (r + 3) v

(* A rule's id: its guard's [code]. *)
let rule_id t r = s_code t (r_guard t r)

let grow_rules t =
  let n = Array.length t.rul in
  (* Rule slots must fit [meta]'s rule field. *)
  if n * 2 > 1 lsl (63 - rule_shift) then failwith "Sequitur: rule store limit";
  let b = Array.make (n * 2) 0 in
  Array.blit t.rul 0 b 0 n;
  t.rul <- b

(* Ids are assigned in ascending order, so a rule given the next id is the
   largest live one and joins the live ring at its tail, just before the
   start rule's slot 0. *)
let ring_append t r =
  let tail = r_prev t 0 in
  set_r_next t r 0;
  set_r_prev t r tail;
  set_r_next t tail r;
  set_r_prev t 0 r

(* A rule's guard carries its id in [code] and its slot in the rule field.
   The start rule itself is made first, into slot 0 of a zeroed store,
   where [ring_append] leaves it alone on the ring. *)
let make_rule t id =
  let r =
    match t.rul_free with
    | -1 ->
      if t.rul_top = Array.length t.rul then grow_rules t;
      let r = t.rul_top in
      t.rul_top <- r + 4;
      r
    | r ->
      t.rul_free <- r_next t r;
      r
  in
  Array.unsafe_set t.rul r (alloc_sym t (tag_guard lor (r lsl rule_shift)) id);
  set_r_refs t r 0;
  ring_append t r;
  t.live_rule_count <- t.live_rule_count + 1;
  r

let first t r = s_nxt t (r_guard t r)
let last t r = s_prv t (r_guard t r)
let reuse t r = set_r_refs t r (r_refs t r + 1)

(* A retired rule leaves the live ring at once, but its slot keeps its
   guard and count until that guard is reclaimed: a deep cascade can
   retire a rule the enclosing [process_match] still holds, which then
   re-reads [first]/[last] through the dead guard — the record
   implementation did the same through its garbage guard record. Guarded
   on liveness: [expand_symbol] reaches here twice for the same rule (via
   [deuse] and directly), and retirement must count once. *)
let kill_rule t r =
  let g = r_guard t r in
  if is_live t g then begin
    mark_dead t g;
    let p = r_prev t r and n = r_next t r in
    set_r_next t p n;
    set_r_prev t n p;
    t.live_rule_count <- t.live_rule_count - 1;
    if tm_on t then t.tm_retired <- t.tm_retired + 1
  end

let deuse t r =
  let n = r_refs t r - 1 in
  set_r_refs t r n;
  if n = 0 && r <> 0 then kill_rule t r

(* End-of-push reclaim: the cascade has settled, nothing references the
   dead slots any more; thread them onto the free list, and the slot of
   each dead guard's rule onto the rule free list. *)
let reclaim_dead t =
  for i = 0 to t.pend_len - 1 do
    let s = Array.unsafe_get t.pend i in
    if is_guard t s then begin
      let r = rule_of t s in
      set_r_next t r t.rul_free;
      t.rul_free <- r
    end;
    set_nxt t s t.free_head;
    t.free_head <- s
  done;
  t.pend_len <- 0

(* --- digram index ------------------------------------------------------ *)

(* Packed digram keys, identical to the record implementation (see the
   comment there): injective while both codes fit in 31 non-negative bits;
   collisions from oversized or negative codes are re-validated on every
   hit, so they cost at most a missed match. *)
let pack hi lo = (hi lsl 31) lxor lo

(* Multiplicative finalizer: packed keys put most entropy in the high bits,
   the table index wants it low. An entry keeps the low 31 bits, which are
   its home in any table of up to 2^31 entries. *)
let hash k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land idx_mask

(* An entry is [hash lsl idx_bits lor (slot / 4)]: both fields are 31
   bits, so an entry is non-negative and -1 marks an empty one. *)
let entry h s = (h lsl idx_bits) lor (s lsr 2)
let entry_slot e = (e land idx_mask) lsl 2
let entry_home e mask = (e lsr idx_bits) land mask

(* The packed key of the digram starting at [s]. *)
let key_at t s = pack (sym_code t s) (sym_code t (s_nxt t s))

(* A probe result is an entry's index into [dig], valid only until the
   next write to the table: an insert may double it and a removal shifts
   later entries back. No caller holds one across another index
   operation. *)

(* Find [key], whose hash is [h]. Returns the entry's index (>= 0), or
   [lnot i] where [i] is the empty entry that ends the probe — where [key]
   would be inserted. An entry with [h]'s bits is [key]'s binding if its
   slot's digram packs to [key]; otherwise it is another key with the same
   hash bits. Single-int result so the hot path allocates nothing. *)
let dig_probe t h key =
  let mask = t.dig_mask in
  let d = t.dig in
  let i = ref (h land mask) in
  let res = ref 0 in
  let probing = ref true in
  while !probing do
    let e = Array.unsafe_get d !i in
    if e = -1 then begin
      res := lnot !i;
      probing := false
    end
    else if e lsr idx_bits = h && key_at t (entry_slot e) = key then begin
      res := !i;
      probing := false
    end
    else i := (!i + 1) land mask
  done;
  !res

(* Move every entry into a table twice the size, each at its home from
   its hash bits. *)
let dig_grow t =
  let od = t.dig in
  let cap = 2 * Array.length od in
  if cap > 1 lsl idx_bits then failwith "Sequitur: digram index limit";
  let d = Array.make cap (-1) in
  let mask = cap - 1 in
  for i = 0 to Array.length od - 1 do
    let e = Array.unsafe_get od i in
    if e <> -1 then begin
      let j = ref (entry_home e mask) in
      while Array.unsafe_get d !j <> -1 do
        j := (!j + 1) land mask
      done;
      Array.unsafe_set d !j e
    end
  done;
  t.dig <- d;
  t.dig_mask <- mask

(* Linear probing's deletion without tombstones (Knuth 6.4, Algorithm R):
   walk the rest of the cluster after the hole and move back every entry
   whose probe path from its home crosses the hole — its home is no
   nearer to it, cyclically, than the hole is. Cyclic distances handle
   clusters that wrap past the end of the table. *)
let dig_delete_at t i =
  let d = t.dig in
  let mask = t.dig_mask in
  let hole = ref i in
  let j = ref ((i + 1) land mask) in
  let e = ref (Array.unsafe_get d !j) in
  while !e <> -1 do
    if (!j - entry_home !e mask) land mask >= (!j - !hole) land mask then begin
      Array.unsafe_set d !hole !e;
      hole := !j
    end;
    j := (!j + 1) land mask;
    e := Array.unsafe_get d !j
  done;
  Array.unsafe_set d !hole (-1);
  t.dig_live <- t.dig_live - 1

(* [Hashtbl.replace] semantics: bind [key] (hash [h]) to [s], given what
   [dig_probe] returned for it — overwrite the binding it found, or insert
   at the empty entry it ended on. Every write sets the anchor bit of the
   slot it names. The table doubles when its live bindings reach half of
   it, so at least half of it is always empty and every probe terminates.
   A write naming a dead slot removes the key's binding instead: the
   record implementation's lookups treat a binding to a dead record as
   absent, and here a binding must name a live slot for its key to be
   derivable. *)
let dig_bind t p h s =
  let m = s_meta t s in
  if m land tag_live = 0 then begin
    if p >= 0 then dig_delete_at t p
  end
  else begin
    Array.unsafe_set t.sym (s + 3) (m lor tag_anchor);
    if p >= 0 then Array.unsafe_set t.dig p (entry h s)
    else begin
      Array.unsafe_set t.dig (lnot p) (entry h s);
      t.dig_live <- t.dig_live + 1;
      if 2 * t.dig_live >= t.dig_mask + 1 then dig_grow t
    end
  end

let dig_replace t key s =
  let h = hash key in
  dig_bind t (dig_probe t h key) h s

(* Remove the binding for [key] if it names [s], whose current digram
   [key] is. That binding's entry word is fully determined, and no other
   entry equals it (a binding naming [s] is keyed by its current digram,
   and a key has one binding), so the search compares whole words and
   reads no arena. *)
let dig_remove_if t key s =
  let mask = t.dig_mask in
  let d = t.dig in
  let h = hash key in
  let want = entry h s in
  let i = ref (h land mask) in
  let e = ref (Array.unsafe_get d !i) in
  while !e <> want && !e <> -1 do
    i := (!i + 1) land mask;
    e := Array.unsafe_get d !i
  done;
  if !e = want then dig_delete_at t !i

(* --- construction ------------------------------------------------------ *)

(* The arena, the rule store and the index start small and double with
   what the grammar keeps live (symbols; rules; digram bindings, at half
   the table), which is O(grammar size) however long the input. Each
   first growth of the index or the arena allocates 512 words, past the
   minor heap's largest block, so pushes allocate no minor words. *)
let dig_init = 256
let sym_init = 64
let rul_init = 32

let create () =
  let t =
    {
      sym = Array.make (4 * sym_init) 0;
      sym_top = 0;
      free_head = -1;
      pend = Array.make 64 0;
      pend_len = 0;
      live_syms = 0;
      rul = Array.make (4 * rul_init) 0;
      rul_top = 0;
      rul_free = -1;
      next_rule_id = 1;
      live_rule_count = 0;
      dig = Array.make dig_init (-1);
      dig_mask = dig_init - 1;
      dig_live = 0;
      input_len = 0;
      mode = 0;
      tm_matches = 0;
      tm_created = 0;
      tm_retired = 0;
      tm_inlines = 0;
    }
  in
  ignore (make_rule t 0 : int);
  t

(* --- core algorithm ---------------------------------------------------- *)

(* Remove the index entry for the digram starting at [s], but only if the
   index actually points at this occurrence. A slot without the anchor bit
   has no binding naming it, so the probe is skipped. Once the probe has
   run, the binding it looked for — the only one that can name [s], keyed
   by its current digram (see [delete_symbol_unanchored]) — is gone, so
   the bit is cleared there (and otherwise only by [mark_dead] and
   [alloc_sym]). A binding overwritten for another slot leaves the old
   slot's bit set; its next removal probe then finds nothing. *)
let delete_digram t s =
  let m = s_meta t s in
  if m land tag_anchor <> 0 then begin
    let n = s_nxt t s in
    if m land tag_guard = 0 && not (is_guard t n) then begin
      Array.unsafe_set t.sym (s + 3) (m land lnot tag_anchor);
      dig_remove_if t (pack (sym_code t s) (sym_code t n)) s
    end
  end

(* Relink [left] -> [right]; drops the index entry of the digram that used
   to start at [left]. *)
let join t left right =
  if not (is_guard t left) then delete_digram t left;
  set_nxt t left right;
  set_prv t right left

(* Insert [ns] right after [q]. Every insertion site allocates [ns] fresh,
   which licenses skipping the symmetric [delete_digram t ns] a generic
   two-[join] insert would perform: no binding names a fresh slot, since
   a slot's binding is removed before it dies. Skipping that probe halves
   the digram-table traffic of a no-match push. *)
let insert_fresh_after t q ns =
  let r = s_nxt t q in
  set_nxt t ns r;
  set_prv t r ns;
  join t q ns

(* Unlink [s] from its rule, cleaning the two digram entries it anchors and
   releasing its rule reference if it is a non-terminal. *)
let delete_symbol t s =
  delete_digram t s;
  join t (s_prv t s) (s_nxt t s);
  mark_dead t s;
  if is_nonterm t s then deuse t (rule_of t s)

(* [delete_symbol] minus the leading [delete_digram], for a slot that
   provably has no index binding anchored at it. Bindings always carry
   their anchor's current digram key, and every successor change at a
   slot goes through a [join] there that deletes the then-current
   binding — so at most one binding names a live slot, keyed by its
   current digram. When a [join] at [s] just ran, that binding is gone
   and the probe would find nothing. *)
let delete_symbol_unanchored t s =
  join t (s_prv t s) (s_nxt t s);
  mark_dead t s;
  if is_nonterm t s then deuse t (rule_of t s)

(* The copy keeps [proto]'s kind and rule field (0 on a terminal). *)
let append_copy t r proto =
  let m = s_meta t proto in
  let ns = alloc_sym t (m land lnot (tag_guard lor tag_live lor tag_anchor)) (s_code t proto) in
  if m land tag_nonterm <> 0 then reuse t (m lsr rule_shift);
  insert_fresh_after t (last t r) ns

(* Rule utility after a match: [i] is a non-terminal whose rule is now
   used once. Top-level, not a closure in [process_match], so a match
   allocates nothing. *)
let underused t i =
  (not (is_guard t i)) && is_nonterm t i && r_refs t (rule_of t i) = 1

(* A nonterminal's code and [meta] for rule slot [r] (anchor bit clear):
   what [alloc_sym] writes into a fresh slot, written into a live one by
   the in-place rewrites below. *)
let set_nonterm t s id r =
  Array.unsafe_set t.sym s id;
  Array.unsafe_set t.sym (s + 3) (tag_live lor tag_nonterm lor (r lsl rule_shift))

(* Whether the push's own match [s] = [N_R c] against [m] = [N_R c'],
   which is not a whole rule, takes [extend] instead of the general path.
   R must be used only at these two places, so that the general path
   inlines it into the new rule r at once. And the symbols before the two
   must differ: the general path's check of [q2 N_r] would find
   [q1 N_r] and cascade, and that cascade could retire r before R is
   inlined into it. *)
let extends t s m =
  is_nonterm t s
  && r_refs t (rule_of t s) = 2
  &&
  let q1 = s_prv t m and q2 = s_prv t s in
  is_guard t q1 || is_guard t q2 || not (same_sym t q1 q2)

(* [check t top s] enforces digram uniqueness for the digram starting at
   [s]. Returns 0 if no match was found. Otherwise the match was
   processed ([s] is dead, or rewritten in place, and the caller must not
   use it further) and the result is positive: the slot of the other
   occurrence if the push's own match took [extend] (a right-hand-side
   slot, at least 4: slot 0 is the start rule's guard), and 1 for any
   other match. [top] is set only for the push's own check (from
   [push_one]): its match may be rewritten in place, as no enclosing
   frame reads through the slots that rewrite reuses. Branch order
   matches the record implementation exactly — grammar equality depends
   on it. *)
let rec check t top s =
  let sn = s_nxt t s in
  if is_guard t s || is_guard t sn then 0
  else begin
    let cs = sym_code t s and csn = sym_code t sn in
    let key = pack cs csn in
    let h = hash key in
    let p = dig_probe t h key in
    if p < 0 then begin
      dig_bind t p h s;
      0
    end
    else begin
      let m = entry_slot (Array.unsafe_get t.dig p) in
      if m = s then 0
      else if not (same_sym t m s && same_sym t (s_nxt t m) sn) then begin
        (* packed-key collision: key equality is not digram equality *)
        dig_bind t p h s;
        0
      end
      else if s_nxt t m = s || sn = m then
        (* Overlapping occurrences (a run like "aaa"): not a usable match. *)
        0
      else process_match t top s m
    end
  end

(* A duplicate digram was found: replace both occurrences by a non-terminal,
   creating a rule if the stored occurrence is not already a whole rule.
   Rules are passed around by slot. *)
and process_match t top s m =
  if tm_on t then t.tm_matches <- t.tm_matches + 1;
  let whole = is_guard t (s_prv t m) && is_guard t (s_nxt t (s_nxt t m)) in
  if top && (not whole) && extends t s m then begin
    extend t s m;
    m
  end
  else begin
    let r =
      if whole then begin
        (* [m] spans the complete right-hand side of an existing rule. *)
        let r = rule_of t (s_prv t m) in
        if top then substitute_top t s r else substitute t s r;
        r
      end
      else begin
        let id = t.next_rule_id in
        t.next_rule_id <- id + 1;
        let r = make_rule t id in
        if tm_on t then t.tm_created <- t.tm_created + 1;
        append_copy t r s;
        append_copy t r (s_nxt t s);
        substitute t m r;
        substitute t s r;
        let f = first t r in
        dig_replace t (pack (sym_code t f) (sym_code t (s_nxt t f))) f;
        r
      end
    in
    (* Rule utility: the substitution dropped one use of each component of
       the matched digram, i.e. of [first r] and [last r] (a matched rule
       always has a two-symbol right-hand side). Inline any that is now
       used once. *)
    let f = first t r in
    if underused t f then expand_symbol t f;
    let l = last t r in
    if underused t l then expand_symbol t l;
    1
  end

(* Replace the digram starting at [s] with a single non-terminal for [r]. *)
and substitute t s r =
  let q = s_prv t s in
  (* The first deletion's [join] at [s] drops the binding anchored at [s]
     (the matched digram's, when it named this occurrence), so the second
     deletion skips its fruitless probe; that deletion's own [join] at [q]
     likewise drops the binding anchored at [q], so the replacement symbol
     is spliced in with no probe at all. *)
  delete_symbol t (s_nxt t s);
  delete_symbol_unanchored t s;
  let ns = alloc_sym t (tag_nonterm lor (r lsl rule_shift)) (rule_id t r) in
  reuse t r;
  let nq = s_nxt t q in
  set_nxt t ns nq;
  set_prv t nq ns;
  set_nxt t q ns;
  set_prv t ns q;
  if check t false q = 0 then ignore (check t false ns : int)

(* [substitute] for the push's own whole-rule match: [s] is the start
   rule's last symbol but one, [c] after it the pushed terminal. [s]'s
   slot becomes the nonterminal, so only [c] dies. The index sees what
   [substitute] does: [c]'s removal probe and [s]'s find nothing (no
   binding names a fresh slot, and [s]'s digram is the matched key, bound
   to the other occurrence), then [q]'s binding goes. *)
and substitute_top t s r =
  let c = s_nxt t s in
  let q = s_prv t s in
  let g = s_nxt t c in
  if not (is_guard t q) then delete_digram t q;
  mark_dead t c;
  if is_nonterm t s then deuse t (rule_of t s);
  set_nonterm t s (rule_id t r) r;
  reuse t r;
  set_nxt t s g;
  set_prv t g s;
  if check t false q = 0 then ignore (check t false s : int)

(* The push's own match [s] = [N_R c] against [m] = [N_R c'], which
   [extends] admits. The general path makes r = [N_R' c''], substitutes
   both occurrences, finds R used once and inlines it into r. Here R's
   rule slot and guard become r (the next id, at the tail of the live
   ring), both N_R slots are relabelled N_r, the pushed [c] moves to the
   end of R's body, and only [c'] dies. The index sees the general path's
   operations in its order: the first substitution's three removals and
   its checks of [q1 N_r] and [N_r ...], the second's removal and its
   check of [q2 N_r] (its check of [N_r] at the start rule's end finds
   nothing), and the inlining's binding of [l c]. [q2] is read after the
   first substitution, as there: when the occurrences are adjacent
   ([... R c' R c]) it is the first one's N_r. Neither substitution's
   check can cascade: N_r has one occurrence during the first, and in
   the second [q2 N_r] could only match [q1 N_r], which [extends] rules
   out, or be [N_r N_r], which occurs once. The general path also
   binds r's first digram [N_R' c''] and the inlining removes it again;
   that pair leaves the key with no binding and, when the bind would
   have doubled the index, a doubled index, and so does this. *)
and extend t s m =
  let rs = rule_of t s in
  let key = pack (sym_code t s) (sym_code t (s_nxt t s)) in
  let id = t.next_rule_id in
  t.next_rule_id <- id + 1;
  (* substitute m r *)
  let m1 = s_nxt t m in
  let m2 = s_nxt t m1 in
  let q1 = s_prv t m in
  delete_digram t m1;
  delete_digram t m;
  if not (is_guard t q1) then delete_digram t q1;
  mark_dead t m1;
  set_nonterm t m id rs;
  set_nxt t m m2;
  set_prv t m2 m;
  if check t false q1 = 0 then ignore (check t false m : int);
  (* substitute s r *)
  let c = s_nxt t s in
  let q2 = s_prv t s in
  let g0 = s_nxt t c in
  if not (is_guard t q2) then delete_digram t q2;
  set_nonterm t s id rs;
  set_nxt t s g0;
  set_prv t g0 s;
  ignore (check t false q2 : int);
  (* r's first digram, bound and removed *)
  let h = hash key in
  let p = dig_probe t h key in
  if p >= 0 then dig_delete_at t p
  else if 2 * (t.dig_live + 1) >= t.dig_mask + 1 then dig_grow t;
  (* the inlining: [c] joins R's body, which is r's *)
  let g = r_guard t rs in
  let l = s_prv t g in
  join t l c;
  set_nxt t c g;
  set_prv t g c;
  dig_replace t (pack (sym_code t l) (sym_code t c)) l;
  Array.unsafe_set t.sym g id;
  let p = r_prev t rs and n = r_next t rs in
  set_r_next t p n;
  set_r_prev t n p;
  ring_append t rs;
  if tm_on t then begin
    t.tm_created <- t.tm_created + 1;
    t.tm_inlines <- t.tm_inlines + 1;
    t.tm_retired <- t.tm_retired + 1
  end

(* Rule utility repair: [s] is the only use of its rule; splice the rule's
   right-hand side in place of [s] and retire the rule. *)
and expand_symbol t s =
  if tm_on t then t.tm_inlines <- t.tm_inlines + 1;
  let r = rule_of t s in
  let left = s_prv t s and right = s_nxt t s in
  let f = first t r and l = last t r in
  delete_digram t s;
  mark_dead t s;
  join t left f;
  join t l right;
  deuse t r;
  kill_rule t r;
  if (not (is_guard t l)) && not (is_guard t right) then
    dig_replace t (pack (sym_code t l) (sym_code t right)) l;
  if (not (is_guard t left)) && not (is_guard t f) then
    dig_replace t (pack (sym_code t left) (sym_code t f)) left

(* Packed digram keys are injective while every code is below 2^31, so
   while every terminal and every rule id is below [narrow]. *)
let narrow = 1 lsl 30

(* [v] lies outside [0, narrow), negative included. *)
let wide v = v lsr 30 <> 0

(* Push [v]; returns what the push's own [check] returned. The caller
   keeps [mode_wide]. *)
let push_one t v =
  let s = alloc_sym t 0 v in
  insert_fresh_after t (last t 0) s;
  t.input_len <- t.input_len + 1;
  let r = check t true (s_prv t s) in
  if t.pend_len > 0 then reclaim_dead t;
  r

(* Whether a.(j) continues the chain at [m] (see [absorb]). *)
let continues t a j stop ~m ~s ~q1g =
  j < stop
  && t.next_rule_id < narrow
  &&
  let m1 = s_nxt t m in
  let m3 = s_nxt t m1 in
  s_meta t m1 land (tag_guard lor tag_nonterm) = 0
  && s_code t m1 = Array.unsafe_get a j
  && m3 <> s
  && not (q1g && is_guard t m3)

(* The push's own match just took [extend] at [m], the other occurrence's
   N_r, and the start rule ends with the pushed occurrence's N_r at [s].
   Pushing a.(i) would meet [N_r a.(i)] against [N_r m1] and take
   [extend] again if [m1] is that terminal, the match is not the whole
   of a rule and the occurrences are not adjacent ([m3 <> s]): [q1] and
   [q2] have not moved, so [extends] still holds. Each such value is
   absorbed here in one step; the result is the index of the first value
   not absorbed.

   One push per value would, per step, remove [N_r m1], [q1 N_r] and
   [q2 N_r], probe [N_r c], bind [q1 N_r'], [N_r' m3] and [q2 N_r'], bind
   and remove the phantom [N_r c], remove [m1 m3] and bind [l c]. Only
   the last two outlive the step. So the chain removes the three
   bindings keyed by the rule's id once, when it starts, and binds them
   for the last id when it ends. Each step removes [m1]'s binding,
   relabels both N slots and the guard, doubles the index where the
   phantom bind would (counting the three bindings one push would hold
   by then) and binds [l m1]. It moves [m1] itself to the end of the
   rule, where one push moves the fresh [c] and kills [m1]: the same
   grammar in other slots, with as many slots free. That each of those
   probes has a known outcome rests on injective keys: a key naming the
   fresh id names no other digram. The caller has checked every terminal
   pushed so far; the ids are checked here. *)
let absorb t m a i stop =
  let s = last t 0 in
  let q1 = s_prv t m and q2 = s_prv t s in
  let q1g = is_guard t q1 in
  if not (continues t a i stop ~m ~s ~q1g) then i
  else begin
    (* the bindings keyed by the current id ([delete_digram] skips a
       guard) *)
    delete_digram t q1;
    delete_digram t m;
    delete_digram t q2;
    let g = r_guard t (rule_of t s) in
    let held = (if q1g then 0 else 1) + if is_guard t q2 then 0 else 1 in
    let j = ref i in
    let more = ref true in
    while !more do
      let m1 = s_nxt t m in
      let m3 = s_nxt t m1 in
      delete_digram t m1;
      set_nxt t m m3;
      set_prv t m3 m;
      let id = t.next_rule_id in
      t.next_rule_id <- id + 1;
      Array.unsafe_set t.sym m id;
      Array.unsafe_set t.sym s id;
      Array.unsafe_set t.sym g id;
      let held = if is_guard t m3 then held else held + 1 in
      if 2 * (t.dig_live + held + 1) >= t.dig_mask + 1 then dig_grow t;
      let l = s_prv t g in
      set_nxt t l m1;
      set_prv t m1 l;
      set_nxt t m1 g;
      set_prv t g m1;
      dig_replace t (pack (sym_code t l) (sym_code t m1)) l;
      incr j;
      more := continues t a !j stop ~m ~s ~q1g
    done;
    let n = !j - i in
    t.input_len <- t.input_len + n;
    if tm_on t then begin
      t.tm_matches <- t.tm_matches + n;
      t.tm_created <- t.tm_created + n;
      t.tm_inlines <- t.tm_inlines + n;
      t.tm_retired <- t.tm_retired + n
    end;
    let m2 = s_nxt t m in
    if not q1g then dig_replace t (pack (sym_code t q1) (sym_code t m)) q1;
    if not (is_guard t m2) then dig_replace t (pack (sym_code t m) (sym_code t m2)) m;
    if not (is_guard t q2) then dig_replace t (pack (sym_code t q2) (sym_code t s)) q2;
    !j
  end

let push t v =
  if wide v then t.mode <- t.mode lor mode_wide;
  sample_tm t;
  ignore (push_one t v : int);
  flush_tm t

(* A chain is absorbed only while every terminal pushed so far is narrow:
   those of earlier calls by [mode_wide], this span's so far by [bits],
   every value or-ed in (a register, not a field written per push). *)
let push_batch t a ~off ~len =
  if off < 0 || len < 0 || off > Array.length a - len then
    invalid_arg "Sequitur.push_batch";
  sample_tm t;
  let stop = off + len in
  let i = ref off in
  let bits = ref 0 in
  while !i < stop do
    let v = Array.unsafe_get a !i in
    bits := !bits lor v;
    let r = push_one t v in
    incr i;
    if r > 1 && (not (wide !bits)) && t.mode land mode_wide = 0 then i := absorb t r a !i stop
  done;
  if wide !bits then t.mode <- t.mode lor mode_wide;
  flush_tm t

let push_array t a = push_batch t a ~off:0 ~len:(Array.length a)

let input_length t = t.input_len

(* --- observers --------------------------------------------------------- *)

(* The live ring starts at the start rule's slot 0 and runs in ascending
   id order, so walking it enumerates exactly the live rules,
   deterministically (start rule first), with no sort and no
   intermediate id list. *)
let fold_live_rules t init f =
  let rec go acc r =
    let acc = f acc r in
    let n = r_next t r in
    if n = 0 then acc else go acc n
  in
  go init 0

let iter_rhs t r f =
  let g = r_guard t r in
  let s = ref (s_nxt t g) in
  while !s <> g do
    f !s;
    s := s_nxt t !s
  done

let grammar_size t = t.live_syms

let rule_count t = t.live_rule_count

let byte_size t =
  fold_live_rules t 0 (fun acc r ->
      let n = ref 1 (* rule separator *) in
      iter_rhs t r (fun s -> n := !n + Ormp_util.Bytesize.varint (sym_code t s));
      acc + !n)

let expand t =
  let a = Array.make t.input_len 0 in
  let k = ref 0 in
  let rec go r =
    iter_rhs t r (fun s ->
        if is_nonterm t s then go (rule_of t s)
        else begin
          a.(!k) <- s_code t s;
          incr k
        end)
  in
  go 0;
  assert (!k = t.input_len);
  a

(* The one rule enumeration everything else is built on. The live ring
   is already sorted, and both walks are plain loops over links: nothing
   is allocated, so persisting a grammar costs no heap per symbol. *)
let visit_rules t ~rule ~terminal ~nonterminal ~rule_end =
  let r = ref 0 in
  let more = ref true in
  while !more do
    let g = r_guard t !r in
    let id = s_code t g in
    rule id;
    let s = ref (s_nxt t g) in
    while !s <> g do
      if is_nonterm t !s then nonterminal (s_code t !s) else terminal (s_code t !s);
      s := s_nxt t !s
    done;
    rule_end id;
    r := r_next t !r;
    more := !r <> 0
  done

let iter_rules t f =
  let rhs = ref [] in
  visit_rules t
    ~rule:(fun _ -> rhs := [])
    ~terminal:(fun v -> rhs := `T v :: !rhs)
    ~nonterminal:(fun r -> rhs := `N r :: !rhs)
    ~rule_end:(fun id -> f id (List.rev !rhs))

let rules t =
  let acc = ref [] in
  iter_rules t (fun id rhs -> acc := (id, rhs) :: !acc);
  List.rev !acc

(* Lengths are memoized per rule, -1 marking a rule whose expansion is in
   progress (met again: a cycle). A rule reachable from the start rule
   occurs in its expansion at least once, so the first length past
   [bound] ends the walk; each sum is compared with [bound] before it is
   taken, so none overflows. *)
let expansion_length ~bound listing =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let table = Hashtbl.create 64 and len = Hashtbl.create 64 in
  let rec length id =
    match Hashtbl.find_opt len id with
    | Some -1 -> bad "cyclic rule R%d" id
    | Some n -> n
    | None ->
      let rhs =
        match Hashtbl.find_opt table id with Some rhs -> rhs | None -> bad "dangling rule R%d" id
      in
      Hashtbl.replace len id (-1);
      let add n sym =
        let k = match sym with `T _ -> 1 | `N r -> length r in
        if k > bound - n then bad "grammar expands past %d symbols" bound else n + k
      in
      let n = List.fold_left add 0 rhs in
      Hashtbl.replace len id n;
      n
  in
  try
    List.iter
      (fun (id, rhs) ->
        if Hashtbl.mem table id then bad "duplicate rule R%d" id;
        Hashtbl.replace table id rhs)
      listing;
    if not (Hashtbl.mem table 0) then bad "grammar has no start rule";
    Ok (length 0)
  with Bad msg -> Error msg

let of_rules ~bound rule_list =
  match expansion_length ~bound rule_list with
  | Error _ as e -> e
  | Ok _ ->
    let table = Hashtbl.create 64 in
    List.iter (fun (id, rhs) -> Hashtbl.replace table id rhs) rule_list;
    (* The algorithm is deterministic: re-pushing the expansion of a
       listing a compressor wrote rebuilds exactly that grammar, rule ids
       included, and grows the same tables the original run grew. Any
       other listing of the same expansion (a repeated digram, a rule used
       once, an unused or renumbered rule) is not what the rebuilt
       compressor holds, so loading it would silently replace the grammar
       on file. The expansion goes through [push_batch] in chunks of one
       reused buffer, so a restore absorbs extension chains as a live run
       does. *)
    let g = create () in
    let buf = Array.make 512 0 in
    let n = ref 0 in
    let rec expand id =
      List.iter
        (function
          | `T v ->
            if !n = Array.length buf then begin
              push_batch g buf ~off:0 ~len:!n;
              n := 0
            end;
            buf.(!n) <- v;
            incr n
          | `N r -> expand r)
        (Hashtbl.find table id)
    in
    expand 0;
    push_batch g buf ~off:0 ~len:!n;
    if rules g = rule_list then Ok g
    else Error "rule listing is not the grammar its expansion rebuilds"

let pp fmt t =
  visit_rules t
    ~rule:(fun id -> Format.fprintf fmt "R%d ->" id)
    ~terminal:(fun v -> Format.fprintf fmt " %d" v)
    ~nonterminal:(fun id -> Format.fprintf fmt " R%d" id)
    ~rule_end:(fun _ -> Format.fprintf fmt "@.")

let check_invariants t =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt in
  try
    if t.pend_len <> 0 then bad "dead slots pending outside a push cascade";
    (* Reads below are unchecked (the module is built with -unsafe), so
       every slot is range-checked before it is followed. *)
    let sym_ok s = s >= 0 && s < t.sym_top && s land 3 = 0 in
    let rul_ok r = r >= 0 && r < t.rul_top && r land 3 = 0 in
    (* The live ring: from the start rule's slot 0, strictly ascending
       ids, each slot headed by a live guard that names it back. *)
    let live : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let r = ref 0 and prev_id = ref (-1) in
    let more = ref true in
    while !more do
      let rs = !r in
      if not (rul_ok rs) then bad "live ring holds wild rule slot %d" rs;
      if Hashtbl.length live >= t.live_rule_count then
        bad "live ring longer than the %d live rules" t.live_rule_count;
      let g = r_guard t rs in
      if not (sym_ok g && is_live t g && is_guard t g) then
        bad "rule slot %d on the live ring has no live guard" rs;
      if rule_of t g <> rs then bad "guard of rule slot %d names slot %d" rs (rule_of t g);
      let id = s_code t g in
      if rs = 0 && id <> 0 then bad "slot 0 holds rule %d, not the start rule" id;
      if id <= !prev_id || id >= t.next_rule_id then
        bad "live ring not in ascending id order (rule %d after rule %d)" id !prev_id;
      if not (rul_ok (r_next t rs)) || r_prev t (r_next t rs) <> rs then
        bad "broken live ring link after rule %d" id;
      Hashtbl.replace live rs id;
      prev_id := id;
      r := r_next t rs;
      more := !r <> 0
    done;
    if Hashtbl.length live <> t.live_rule_count then
      bad "live ring holds %d rules but %d are live" (Hashtbl.length live) t.live_rule_count;
    (* ... and it holds every live guard of the arena. *)
    let s = ref 0 in
    while !s < t.sym_top do
      if is_live t !s && is_guard t !s then begin
        let rs = rule_of t !s in
        if not (Hashtbl.mem live rs && r_guard t rs = !s) then
          bad "live guard of rule %d is not on the live ring" (s_code t !s)
      end;
      s := !s + 4
    done;
    (* Free rule slots are disjoint from live ones, and at rest (every
       dead guard reclaimed) the two account for every slot. *)
    let free = Hashtbl.create 16 in
    let r = ref t.rul_free in
    while !r <> -1 do
      if not (rul_ok !r) then bad "rule free list holds wild slot %d" !r;
      if Hashtbl.mem live !r then bad "rule slot %d is both live and free" !r;
      if Hashtbl.mem free !r then bad "rule free list cycles at slot %d" !r;
      Hashtbl.replace free !r ();
      r := r_next t !r
    done;
    if Hashtbl.length live + Hashtbl.length free <> t.rul_top / 4 then
      bad "rule slots lost: %d live and %d free of %d" (Hashtbl.length live)
        (Hashtbl.length free) (t.rul_top / 4);
    let uses : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let syms = ref 0 in
    fold_live_rules t () (fun () rs ->
        let id = Hashtbl.find live rs in
        let g = r_guard t rs in
        let s = ref (s_nxt t g) in
        while !s <> g do
          let s' = !s in
          if not (sym_ok s') then bad "wild slot in rule %d" id;
          if not (is_live t s') then bad "dead symbol reachable in rule %d" id;
          if is_guard t s' then bad "guard inside rule %d body" id;
          if s_prv t (s_nxt t s') <> s' then bad "broken next/prev link";
          if s_nxt t (s_prv t s') <> s' then bad "broken prev/next link";
          incr syms;
          if !syms > t.sym_top / 4 then bad "right-hand side of rule %d does not close" id;
          if is_nonterm t s' then begin
            let r2 = rule_of t s' in
            match Hashtbl.find_opt live r2 with
            | Some id2 when id2 = s_code t s' ->
              Hashtbl.replace uses r2 (1 + Option.value ~default:0 (Hashtbl.find_opt uses r2))
            | Some id2 ->
              bad "nonterminal R%d in rule %d names the slot of rule %d" (s_code t s') id id2
            | None -> bad "rule %d references dead rule %d" id (s_code t s')
          end
          else if rule_of t s' <> 0 then bad "terminal in rule %d carries a rule slot" id;
          s := s_nxt t s'
        done);
    if !syms <> t.live_syms then
      bad "live-symbol count %d but %d right-hand-side symbols" t.live_syms !syms;
    fold_live_rules t () (fun () rs ->
        if rs <> 0 then begin
          let id = Hashtbl.find live rs in
          let u = Option.value ~default:0 (Hashtbl.find_opt uses rs) in
          if u <> r_refs t rs then bad "rule %d refcount %d but %d uses" id (r_refs t rs) u;
          if u < 2 then bad "rule %d violates utility (%d uses)" id u
        end);
    (* The symbol free list: dead slots only, each once. *)
    let free = Bytes.make (t.sym_top / 4) '\000' in
    let s = ref t.free_head in
    while !s <> -1 do
      if not (sym_ok !s) then bad "symbol free list holds wild slot %d" !s;
      if Bytes.get free (!s / 4) <> '\000' then bad "symbol free list cycles at slot %d" !s;
      if is_live t !s then bad "live slot %d on the symbol free list" !s;
      Bytes.set free (!s / 4) '\001';
      s := s_nxt t !s
    done;
    (* The digram index, entry by entry: each names a live slot, off the
       free list, whose successor is not a guard, carries the hash bits
       of that slot's current digram and names a slot carrying the anchor
       bit. *)
    let mask = t.dig_mask in
    let d = t.dig in
    let entries = ref 0 in
    for i = 0 to mask do
      let e = d.(i) in
      if e <> -1 then begin
        incr entries;
        let s = entry_slot e in
        if e < 0 || not (sym_ok s) then bad "digram index entry %d names no slot" i;
        if Bytes.get free (s / 4) <> '\000' then bad "digram index entry names free slot %d" s;
        if not (is_live t s) then bad "digram index entry names dead slot %d" s;
        if is_guard t s || not (sym_ok (s_nxt t s)) || is_guard t (s_nxt t s) then
          bad "digram index entry names slot %d, not the start of a digram" s;
        if e lsr idx_bits <> hash (key_at t s) then
          bad "digram index entry for slot %d does not hash its digram" s;
        if s_meta t s land tag_anchor = 0 then
          bad "digram index entry names a slot without the anchor bit"
      end
    done;
    if !entries <> t.dig_live then bad "digram index live-count drift";
    if 2 * t.dig_live > mask + 1 then bad "digram index over half full";
    (* ... and together: each is reachable from its home without crossing
       an empty entry or another entry for its key. Two entries for one
       key share a home, so the later one's path crosses the earlier;
       two entries naming one slot would share its key. *)
    for i = 0 to mask do
      let e = d.(i) in
      if e <> -1 then begin
        let key = key_at t (entry_slot e) in
        let j = ref (entry_home e mask) in
        while !j <> i do
          let f = d.(!j) in
          if f = -1 then bad "digram index entry unreachable from its home";
          if f lsr idx_bits = e lsr idx_bits && key_at t (entry_slot f) = key then
            bad "two digram index entries for one key";
          j := (!j + 1) land mask
        done
      end
    done;
    Ok ()
  with Bad msg -> Error msg
