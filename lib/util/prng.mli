(** Deterministic pseudo-random number generation.

    A small splitmix64 generator used everywhere randomness is needed, so
    that every workload, experiment and test is reproducible bit-for-bit
    across runs and OCaml versions (the stdlib [Random] algorithm is not
    stable across releases). *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Equal seeds yield equal
    streams. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)
