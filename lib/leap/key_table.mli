(** Open-addressing int-keyed tables for the LEAP collector arenas.

    Flat interleaved int columns with linear probing — no boxed keys, no
    polymorphic hashing, no allocation on lookups or (amortized, outside
    growth) on insertion. A -1 sentinel in the payload column marks an
    empty bucket, so payloads must be non-negative. Keys are never
    deleted. *)

type t
(** [(a, b) -> slot] map stored as interleaved [a; b; slot] triplets. *)

val create : ?capacity:int -> unit -> t
(** [capacity] is rounded up to a power of two (default 64 buckets). *)

val length : t -> int
(** Keys bound. *)

val find : t -> int -> int -> int
(** Slot bound to [(a, b)], or -1. *)

val mem : t -> int -> int -> bool

val add : t -> int -> int -> int -> unit
(** [add t a b slot] binds [(a, b) -> slot]. The key must be absent
    (bindings are never replaced — LEAP slots are immutable once
    assigned); grows to keep load at or below one half. *)

type pairs
(** [k -> v] map stored as interleaved [k; v] pairs. *)

val pairs_create : unit -> pairs
val pairs_set : pairs -> int -> int -> unit
(** Bind [k -> v], replacing any previous binding. *)

val pairs_iter : (int -> int -> unit) -> pairs -> unit
(** Iterate bindings in unspecified (bucket) order. *)
