(** Address-range index for the object-management component.

    The paper speeds up raw-address-to-object lookup with "an auxiliary
    B-tree-like data structure which stores the range of addresses that each
    object takes up" (§3.1). This is that structure, flattened (PR 10)
    into three parallel lanes sorted by base — no per-range boxing, and
    stabbing queries ({!find_idx}) are allocation-free binary searches.
    Inserts and removals shift the lanes (O(n)) but ride the rare
    alloc/free path; profiling streams are access-dominated.

    Ranges must not overlap; the allocator substrate guarantees this, and
    {!val:insert} enforces it defensively. *)

type 'a t
(** Index holding values of type ['a], one per live range. *)

val create : unit -> 'a t
(** Empty index. *)

val insert : 'a t -> base:int -> size:int -> 'a -> unit
(** [insert t ~base ~size v] maps the range [\[base, base+size)] to [v].
    [size] must be positive.
    @raise Invalid_argument if the range overlaps an existing one. *)

val remove : 'a t -> base:int -> bool
(** [remove t ~base] deletes the range starting exactly at [base]; returns
    whether a range was present. *)

val find : 'a t -> int -> (int * int * 'a) option
(** [find t addr] returns [(base, size, v)] for the unique live range
    containing [addr], if any. *)

val find_nearest_below : 'a t -> int -> (int * int * 'a) option
(** [find_nearest_below t addr] is the range with the greatest [base <=
    addr] (which may or may not contain [addr]), if any. Together with
    {!find_nearest_above} this answers proximity queries — e.g. "which
    object does this out-of-bounds address sit just past?". *)

val find_nearest_above : 'a t -> int -> (int * int * 'a) option
(** The range with the least [base > addr], if any. *)

val mem : 'a t -> int -> bool
(** Whether some live range contains the address. *)

val cardinal : 'a t -> int
(** Number of live ranges. *)

val iter : 'a t -> (base:int -> size:int -> 'a -> unit) -> unit
(** Visit all live ranges in increasing base order. *)

val max_live : 'a t -> int
(** High-water mark of {!cardinal} over the index's lifetime. *)

val check_invariants : 'a t -> (unit, string) result
(** Verify lane ordering, range disjointness and bookkeeping; for tests. *)

(** {2 Flat-lane access}

    Allocation-free query surface for hot paths (the OMC's packed-int
    MRU). Indices returned by {!find_idx} are positions in the sorted
    lanes and stay valid only while {!generation} is unchanged — any
    {!insert} or {!remove} shifts the lanes and bumps the generation. *)

val find_idx : 'a t -> int -> int
(** [find_idx t addr] is the lane index of the live range containing
    [addr], or [-1]. Never allocates. *)

val generation : 'a t -> int
(** Mutation counter: bumped by every {!insert} and {!remove}. *)

val idx_base : 'a t -> int -> int
(** Base of the range at a lane index. Unsafe: the index must come from
    {!find_idx} under the current {!generation}. *)

val idx_size : 'a t -> int -> int
(** Size of the range at a lane index (same contract as {!idx_base}). *)

val idx_value : 'a t -> int -> 'a
(** Value of the range at a lane index (same contract as {!idx_base}). *)
