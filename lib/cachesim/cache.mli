(** A set-associative data-cache simulator.

    The optimizations the paper's profiles feed — field reordering, object
    clustering, cache-conscious placement (its references [4], [11], [13])
    — all pay off in data-cache misses, so evaluating them needs a cache
    model. This is a classic write-allocate, LRU, set-associative cache:
    accesses stream in, hit/miss counts come out. Used by the layout
    examples and the clustering benchmarks to score a layout proposed from
    a profile. *)

type config = {
  size_bytes : int;  (** total capacity *)
  line_bytes : int;  (** power of two *)
  ways : int;  (** associativity; sets = size / (line * ways) *)
}

val l1d : config
(** 16 KiB, 64-byte lines, 4-way — the first-level data cache of the
    paper's Itanium testbed, near enough. *)

type t

val create : config -> t
(** @raise Invalid_argument if the geometry is not a power-of-two split. *)

val access : t -> addr:int -> size:int -> bool
(** Touch [size] bytes at [addr]; returns [true] on a (full) hit. An
    access spanning two lines touches both and hits only if both hit. *)

val accesses : t -> int
val hits : t -> int
val misses : t -> int

val miss_rate : t -> float
(** Misses over accesses; 0 when idle. *)
