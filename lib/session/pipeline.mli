(** The one profiling stack: a CDC feeding the four OMSG grammars
    (WHOMP), the RASG baseline grammar and LEAP, from one translation of
    each event.

    Every way of producing a profile drives this module: the CLI's
    [ormp whomp], crash-safe {!Session}s at any [--jobs], the supervised
    suite, the [ormp serve] daemon (many pipelines side by side on one
    shared {!Ormp_trace.Pool}), [Client.reference], and the bench.

    Byte-identity is the contract: feeding the same event sequence to any
    two pipelines — serial or multiplexed over a pool, in one process or
    across a kill and resume — produces identical profiles. Each of the
    five grammars is pinned to one pool worker, so its pushes keep
    producer order; LEAP always runs on the producer's thread, because
    its stream admission order is global. *)

type t

val create :
  ?pool:Ormp_trace.Pool.t * int ->
  ?site_name:(int -> string) ->
  ?restore:Snapshot.t ->
  ?leap_budget:int ->
  ?max_streams:int ->
  unit ->
  t
(** A fresh pipeline. [pool = (p, slot)] runs grammar maintenance on [p],
    with [slot] seeding the per-grammar worker pinning (give each pipeline
    sharing [p] a distinct slot to spread load). Without [pool] everything
    runs inline on the caller's thread.

    [site_name] labels allocation-site groups (default [site<N>], which is
    what the daemon uses: it never sees the client's instruction table).
    [restore] continues from a session checkpoint; the pipeline then
    stands at the snapshot's position. *)

val apply : t -> Ormp_trace.Event.t -> unit
(** Feed one event. Accesses also stage their address for the RASG
    grammar; alloc and free flush the CDC's staged batch. Caller's thread
    only. *)

val apply_chunk : t -> Ormp_trace.Batch.chunk -> off:int -> len:int -> unit
(** [apply] of the accesses [off, off + len) of a chunk, straight from its
    lanes with no event boxed: the same state as one [apply] per access.
    @raise Invalid_argument when the range is outside [0, chunk.len). *)

val position : t -> int
(** Events applied so far, counting a restored prefix. *)

val quiesce : t -> unit
(** Flush all staged work and drain the pool (if any), so the state
    below is the exact serial state at {!position}. *)

val failure : t -> exn option
(** An exception a pooled compressor raised while working for this
    pipeline. Meaningful after {!quiesce}. A failed pipeline must be
    discarded, but the shared pool and every other pipeline on it are
    unaffected. *)

val collected : t -> int
val wild : t -> int

val grammar_symbols : t -> int
(** Total symbols across the five grammars, exact at {!position}: it
    quiesces first (with a pool, that waits for this pipeline's
    workers). *)

val live_objects : t -> int
val leap_streams : t -> int

val occupancy : t -> float
(** Worst instantaneous ring occupancy across this pipeline's pinned
    workers, in [0, 1] (racy; 0.0 without a pool) — the backpressure this
    one pipeline sees, where {!Ormp_trace.Pool.occupancy} is pool-wide. *)

val grammars : t -> (string * Ormp_sequitur.Sequitur.t) list
(** The live grammars: the four WHOMP dimensions in paper order, then
    [("rasg", _)]. Does not quiesce: read them only after {!quiesce}, as
    staged accesses and pooled pushes may still be pending. *)

(** {1 Quiesced accessors}

    Each of these quiesces first and raises the pipeline's {!failure} if
    there is one. *)

val rotate : t -> (string * Ormp_sequitur.Sequitur.t) list
(** Retire the five live grammars (returned in {!grammars} order) and
    continue into fresh ones — the session watchdog's epoch seal. *)

val cdc_state : t -> Ormp_core.Cdc.state
val leap_live : t -> Ormp_leap.Leap.live

val whomp_profile : t -> elapsed:float -> Ormp_whomp.Whomp.profile
(** Also publishes the OMC gauges and the gauges of all five grammars
    when telemetry is on. *)

val rasg_profile : t -> elapsed:float -> Ormp_whomp.Rasg.profile
val leap_profile : t -> elapsed:float -> Ormp_leap.Leap.profile

val finalize : t -> dir:string -> elapsed:float -> unit
(** Write {!whomp_file}, {!rasg_file} and {!leap_file} into [dir]. The
    [elapsed] recorded is the caller's (normally 0 for comparable
    output; wall-clock truth lives in telemetry). *)

val whomp_file : string
val rasg_file : string
val leap_file : string

(** {1 Drivers} *)

val table_site_name : Ormp_trace.Instr.table option ref -> int -> string
(** Site names through an instruction table that is filled in once the
    run that produces it finishes ([site<N>] until then). Group labels are
    resolved lazily, so a profile taken after the run gets real names. *)

val with_pool : jobs:int -> ((Ormp_trace.Pool.t * int) option -> 'a) -> 'a
(** [with_pool ~jobs f] gives [f] a private pool of [jobs - 1] workers
    (the caller's thread is the producer), or [None] when [jobs <= 1],
    and joins the pool however [f] ends. *)

val run :
  ?config:Ormp_vm.Config.t ->
  ?jobs:int ->
  ?site_name:(int -> string) ->
  ?wrap:((Ormp_trace.Event.t -> unit) -> Ormp_trace.Event.t -> unit) ->
  Ormp_vm.Program.t ->
  t * Ormp_vm.Runner.result
(** Run [program] through one pipeline under {!with_pool}, returned
    quiesced. Site names default to {!table_site_name} over the run's own
    table. [wrap] splices a caller's sink around {!apply}, e.g. a
    sanitizer tap or a cancellation guard. *)
