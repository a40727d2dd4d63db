(** The workload execution engine.

    This plays the role of the instrumented program: workloads are written
    against a typed object API (allocate an object, load/store a field at
    an offset), and the engine turns every operation into the raw-address
    probe events a binary instrumentor would emit — allocations placed by
    the configured allocator, statics placed by the simulated linker, and
    one {!Ormp_trace.Event.Access} per executed memory operation.

    Program points (loads, stores, allocation sites) are registered
    explicitly and deterministically, so instruction ids are identical
    across configurations while raw addresses are not. *)

type t

type obj
(** Handle to a live object (or pool piece): a concrete address range. *)

val make :
  config:Config.t -> sink:Ormp_trace.Sink.t -> statics:Ormp_memsim.Layout.entry list -> t
(** Build an engine: lays out [statics], registers one allocation site per
    static and emits their [Alloc] events (the paper inserts static-object
    probes "at the beginning ... of the program", §3.1). Probes are
    delivered per event, synchronously. *)

val make_batched :
  config:Config.t -> batch:Ormp_trace.Batch.t -> statics:Ormp_memsim.Layout.entry list -> t
(** Same engine, but load/store probes take {!Ormp_trace.Batch.on_access}
    — the unboxed struct-of-arrays fast path. The caller owns the batch
    and must {!Ormp_trace.Batch.flush} it when the run ends
    ({!Runner.run_batched} does). *)

val table : t -> Ormp_trace.Instr.table
(** The program-point table built so far. *)

val rng : t -> Ormp_util.Prng.t
(** Workload-internal randomness, seeded from the config. *)

val allocator : t -> Ormp_memsim.Allocator.t

val instr : t -> name:string -> Ormp_trace.Instr.kind -> int
(** Register a program point; returns its id. *)

val static : t -> string -> obj
(** Handle to a laid-out static object. @raise Not_found. *)

val alloc : t -> site:int -> ?type_name:string -> int -> obj
(** Heap-allocate an object of the given byte size at an allocation site;
    emits the object-creation probe event. *)

val free : t -> site:int -> obj -> unit
(** Destroy a heap object; emits the destruction probe event carrying the
    free-site program point, so free sites appear in the instruction
    table and the event stream just like alloc sites do. *)

val addr : obj -> int
val obj_size : obj -> int

val load : t -> instr:int -> ?size:int -> obj -> int -> unit
(** [load t ~instr o off] reads [size] bytes (default 8) at [off] inside
    [o]; emits an access event. @raise Invalid_argument when the access
    falls outside the object. *)

val store : t -> instr:int -> ?size:int -> obj -> int -> unit

val load_raw : t -> instr:int -> ?size:int -> int -> unit
(** Access a raw address with no object bookkeeping (stack-like or wild
    accesses; the paper leaves such accesses unprofiled). *)

val free_raw : t -> ?site:int -> int -> unit
(** Emit a destruction probe for a raw address without touching the
    allocator — the double-free analogue of {!load_raw}. The fault
    harness uses this to plant invalid frees the allocator itself would
    refuse to perform. *)

(** Custom allocation pools (§3.1 footnote). By default a pool is profiled
    as a single object; with [~expose_pieces:true] the profiler instead
    "manually target[s] the custom alloc/dealloc functions": every piece
    emits its own creation probe (at [pieces_site]) and a reset emits
    destruction probes for all live pieces, so pieces become first-class
    objects with their own group and serials. *)

val pool_create :
  t -> site:int -> ?type_name:string -> ?expose_pieces:bool -> ?pieces_site:int -> int -> obj
(** Allocate a pool of the given size. With [~expose_pieces:true] (default
    false), [pieces_site] must be given; the pool's own allocation goes
    unprobed (its pieces are the profiled objects — they would otherwise
    overlap the pool in the object index).
    @raise Invalid_argument if [expose_pieces] is set without
    [pieces_site]. *)

val pool_piece : t -> pool:obj -> int -> obj
(** Carve a piece of the given size out of the pool. No probe event in the
    default mode (accesses through the piece translate into the pool
    object); a creation probe in [expose_pieces] mode. *)

val pool_reset : t -> pool:obj -> unit
(** Recycle the pool's space: no probe event in the default mode, one
    destruction probe per live piece in [expose_pieces] mode. *)

val pool_destroy : t -> site:int -> pool:obj -> unit
(** Free the pool object; emits the destruction probe event. *)
