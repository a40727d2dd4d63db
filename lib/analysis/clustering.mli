(** Object clustering (the paper's reference [4], Rubin-Bodik-Chilimbi).

    The object dimension of the object-relative profile says {e which}
    objects are accessed together; a cache-conscious allocator can then
    place temporally-affine objects on the same lines. This module builds
    the object-affinity graph from a collected run, proposes a greedy
    clustered layout, and — because the whole point is cache behaviour —
    replays the access stream through the cache simulator under both the
    original and the clustered layout to score the proposal.

    The replay relocates objects but preserves the access sequence exactly;
    this is sound because the object-relative stream is layout-invariant
    (the paper's central property, verified by the test suite). *)

type t = {
  group : int;
  affinities : ((int * int) * int) list;
      (** unordered object-serial pairs of the group, adjacency-weighted,
          heaviest first *)
  order : int list;  (** proposed placement order (object serials) *)
}

val analyze : Collect.t -> group:int -> t
(** Affinity counts pairs of distinct objects accessed within 8
    consecutive collected accesses of each other. *)

type layout = (int * int, int) Hashtbl.t
(** (group, serial) -> base address. *)

val sequential_layout : Collect.t -> layout
(** Objects packed in allocation order (what a bump allocator did). *)

val clustered_layout : Collect.t -> t list -> layout
(** Objects of clustered groups packed in the proposed order; everything
    else in allocation order after them. *)

val replay_miss_rate : ?cache:Ormp_cachesim.Cache.config -> Collect.t -> layout -> float
(** Miss rate of the collected access stream under a layout
    (default cache: {!Ormp_cachesim.Cache.l1d}). *)
