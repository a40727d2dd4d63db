(** The object-management component (§2.3).

    The OMC "records information about every object allocated in the
    program: the time when it is allocated and de-allocated, the address
    range used by the object, and the type of the object", assigns group
    and object identifiers, and answers the central query of the paper:
    given a raw address, which [(group, object, offset)] is it?

    Lookup uses the B-tree-like range index of {!Ormp_interval.Range_index}
    (§3.1). Objects are grouped by allocation site by default — "the
    profiler groups allocated dynamic objects by static instruction" — or
    by type name when the workload provides one and [`Type] grouping is
    selected ("the compiler can provide type information to further refine
    this strategy"). *)

type grouping = [ `Site | `Type ]

type group_info = {
  gid : int;  (** dense group id *)
  site : int;  (** allocation site that first created the group *)
  label : string;  (** site name, or type name under [`Type] grouping *)
  mutable population : int;  (** objects ever allocated in this group *)
}

type lifetime = {
  group : int;
  serial : int;  (** object id within the group, dense from 0 *)
  base : int;
  size : int;
  alloc_time : int;
  mutable free_time : int option;  (** [None] while live / never freed *)
  mutable free_site : int option;
      (** the static free-site program point, when the destruction probe
          carried one — the attribution the checking layer reports as
          "freed at site f @t" *)
}

type t

val create :
  ?grouping:grouping -> site_name:(int -> string) -> unit -> t
(** [site_name] renders an allocation-site id for group labels (typically
    {!Ormp_trace.Instr.info}). Default grouping is [`Site]. *)

val on_alloc : t -> time:int -> site:int -> addr:int -> size:int -> type_name:string option -> unit
(** Object-creation probe. @raise Invalid_argument if the range overlaps a
    live object (a substrate bug). *)

val on_free : ?site:int -> t -> time:int -> addr:int -> unit
(** Object-destruction probe; [site] is the free-site program point when
    the probe carried one. Unknown addresses are counted but ignored. *)

val translate : t -> int -> (int * int * int) option
(** [translate t addr] is [Some (group, object-serial, offset)] for the
    live object containing [addr], [None] for unprofiled memory. Always
    pays the full range-index lookup; the batched pipeline uses
    {!translate_batch} instead. Kept as the reference the per-event
    {!Cdc.sink} path, the equivalence tests and the bench's legacy
    hot-path row translate through. *)

val translate_batch :
  t ->
  instrs:int array ->
  addrs:int array ->
  len:int ->
  groups:int array ->
  serials:int array ->
  offsets:int array ->
  unit
(** Translate the first [len] (instr, addr) pairs, writing results into
    [groups]/[serials]/[offsets] (all [-1] for an untranslatable address):
    the same answers as {!translate}, but through a two-way
    per-instruction MRU cache (DJXPerf-style "last touched object" plus
    the entry it displaced). Most instructions hit the same object
    repeatedly, so the common case is three compares instead of a
    range-index search. A cached object answers only while it is live
    and its range contains the address — freeing an object invalidates
    every cache entry pointing at it, so an allocation reusing the same
    base can never be answered with the dead object's identity. This is
    the allocation-free hot path the batched CDC drives.
    @raise Invalid_argument if any array is shorter than [len]. *)

val group : t -> int -> group_info
(** @raise Invalid_argument for an unknown group id. *)

val groups : t -> group_info list
(** In group-id order. *)

val lifetimes : t -> lifetime list
(** Every object ever seen, in allocation order — the run-dependent
    auxiliary output the paper keeps alongside the invariant tuples. *)

val live_objects : t -> int
val max_live_objects : t -> int
val translations : t -> int
val misses : t -> int

val cache_hits : t -> int
(** Translations answered by the MRU cache (a subset of
    {!translations}). *)

val cache_hit_rate : t -> float
(** [cache_hits / translations], 0 when nothing was translated. *)

val publish_gauges : t -> unit
(** Publish the OMC lifetime totals (live/max objects, translations,
    misses, cache hits, unknown frees) as telemetry gauges. No-op with
    telemetry disabled; meant to be called once at finalize. *)

(** {1 Checkpoint state}

    A deep, serializable snapshot of the object table, for the session
    layer's checkpoint/resume. Translation statistics and the MRU cache are
    deliberately not part of the state: neither ever influences profile
    content, and the cache refills itself. *)

type group_state = {
  gs_site : int;  (** allocation site that first created the group *)
  gs_type : string option;  (** type key under [`Type] grouping *)
  gs_population : int;
}

type state = {
  s_grouping : grouping;
  s_groups : group_state list;  (** in group-id order *)
  s_lifetimes : lifetime list;  (** allocation order; deep copies *)
  s_unknown_frees : int;
}

val state : t -> state

val of_state : site_name:(int -> string) -> state -> t
(** Rebuild an OMC: groups are re-interned in id order, lifetimes re-added
    in allocation order, and still-live objects re-inserted into the range
    index, so subsequent probes and translations answer exactly as the
    original would have. [max_live_objects] restarts from the restored
    live count and the MRU cache restarts cold (statistics only).
    @raise Invalid_argument on an inconsistent state. *)
