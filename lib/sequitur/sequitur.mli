(** Sequitur grammar compression (Nevill-Manning & Witten, 1997).

    Sequitur incrementally builds a context-free grammar for an input
    sequence by enforcing two constraints: {e digram uniqueness} (no pair of
    adjacent symbols occurs more than once in the grammar) and {e rule
    utility} (every rule is used at least twice). WHOMP feeds each
    decomposed object-relative stream to one instance of this compressor;
    the RASG baseline feeds it the raw address stream.

    Terminals are arbitrary OCaml [int]s. The grammar is lossless:
    {!expand} reproduces exactly the pushed sequence. *)

type t
(** An incremental Sequitur compressor and the grammar built so far. *)

val create : unit -> t
(** Fresh compressor with an empty start rule. Its symbol arena (64
    symbols), rule store (32 rules) and digram index (256 one-word
    entries) start small and double with what the grammar keeps live (the
    index when its live bindings reach half of it), and the slots of dead
    symbols and retired rules are recycled, so they stay O(grammar size)
    however long the input and however many rules it ever created. *)

val push : t -> int -> unit
(** Append one terminal to the input sequence and restore the grammar
    constraints. Amortized ~O(1). *)

val push_array : t -> int array -> unit
(** [push] every element in order. *)

val push_batch : t -> int array -> off:int -> len:int -> unit
(** [push_batch t a ~off ~len] pushes [a.(off) .. a.(off + len - 1)] in
    order — the bulk entry point the WHOMP/RASG sinks, the pipeline's
    grammar workers and {!of_rules} feed whole lanes through, avoiding
    per-symbol call overhead. It reads ahead within the span: when a push
    extends a rule and the next values continue the rule's other
    occurrence, it absorbs that run of extensions in one loop. One
    {!push} per value is the reference it must equal: the same rules and
    rule ids, [sequitur.*] counts and tables (so the same heap), for any
    span and any way of cutting the input into spans.
    @raise Invalid_argument if [off]/[len] do not denote a valid span. *)

val input_length : t -> int
(** Number of terminals pushed so far. *)

val grammar_size : t -> int
(** Total number of symbols on the right-hand sides of all live rules —
    the standard Sequitur size metric used for the paper's compression
    comparisons. O(1): a maintained count, so it may be polled often. *)

val rule_count : t -> int
(** Number of live rules, including the start rule. *)

val byte_size : t -> int
(** Serialized size estimate in bytes: every RHS symbol is charged its
    varint width (terminals by value, non-terminals by rule id, one tag
    bit), plus one separator byte per rule. *)

val expand : t -> int array
(** Decompress: the exact sequence of terminals pushed so far. *)

val visit_rules :
  t ->
  rule:(int -> unit) ->
  terminal:(int -> unit) ->
  nonterminal:(int -> unit) ->
  rule_end:(int -> unit) ->
  unit
(** Enumerate live rules in ascending rule-id order (start rule first):
    [rule id], then [terminal v] or [nonterminal id'] for each right-hand
    side symbol in order, then [rule_end id]. A rule's id is its creation
    ordinal; the walk follows a list of the live rules kept in id order,
    so it is already sorted and costs O(live grammar), not O(rules ever
    created). The enumeration itself allocates nothing, which is what
    lets a profile be persisted without heap traffic per symbol.
    {!rules}, {!iter_rules} and {!pp} are built on it. The callbacks must
    not modify the grammar. *)

val rules : t -> (int * [ `T of int | `N of int ] list) list
(** Live rules as [(rule-id, right-hand side)], start rule (id 0) first,
    for display and testing. *)

val iter_rules : t -> (int -> [ `T of int | `N of int ] list -> unit) -> unit
(** {!visit_rules} with each right-hand side gathered into a list — the
    same order as {!rules} without materializing the whole listing. *)

val expansion_length :
  bound:int -> (int * [ `T of int | `N of int ] list) list -> (int, string) result
(** The length of the start rule's expansion in a {!rules} listing, in
    O(rules + symbols) and without expanding anything: [Error] for a
    duplicate, dangling or cyclic rule, a missing start rule, or as soon
    as a rule the start rule reaches expands past [bound] symbols (so no
    count overflows, for any [bound >= 0]). {!of_rules} measures with
    it, so a listing that doubles at every rule fails at once instead of
    expanding. *)

val of_rules : bound:int -> (int * [ `T of int | `N of int ] list) list -> (t, string) result
(** Rebuild a live compressor from a {!rules} listing: the listing is
    measured by {!expansion_length} against [bound] (a loader passes the
    count its file records) before anything expands, then the start rule
    is expanded and its terminal sequence re-pushed through
    {!push_batch}, 512 values at a time. Sequitur is
    deterministic, so the rebuilt grammar has exactly the saved rules —
    ids included — and further {!push}es continue as if the original
    compressor had never stopped. This is what makes grammar state
    checkpointable: a snapshot is just {!rules}. A listing that is not
    exactly what the rebuild holds (same ids, order and right-hand sides)
    is [Error]: no compressor wrote it, so it cannot be continued. The
    rebuild starts from {!create}[ ()], so it grows the same tables the
    original run grew and holds no more heap than the grammar it restores. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print the grammar, one rule per line ([R0 -> a R1 R1]). *)

val check_invariants : t -> (unit, string) result
(** Validate internal consistency: doubly-linked list integrity, no dead
    symbol reachable, reference counts matching actual uses, rule utility
    (every non-start rule used at least twice); rule storage — the live
    rule list strictly ascending by id and holding exactly the live
    guards, every nonterminal naming the slot of a live rule whose id is
    its code, free rule slots disjoint from live ones, and the live-symbol
    count equal to the right-hand-side symbols {!visit_rules} yields; the
    symbol free list holding dead slots only; and a digram index at most
    half full whose every entry names a live slot, off the free list,
    whose successor is not a guard, carries the hash bits of that slot's
    current digram, is reachable from its home without crossing an empty
    entry and names a slot carrying the anchor bit, with no two entries
    for one key or one slot. For tests. *)
