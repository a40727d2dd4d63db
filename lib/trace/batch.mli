(** Batched probe delivery — the zero-allocation fast path.

    The per-event interface ({!Sink.t}) boxes one {!Event.Access} record
    per executed load/store, which makes GC churn the dominant constant
    factor of the whole profiling pipeline. A [Batch.t] instead accumulates
    accesses into a fixed-capacity struct-of-arrays buffer via the unboxed
    {!on_access} call and hands the buffer to its consumer in chunks.

    Event order is preserved exactly: non-access events (alloc/free) are
    rare, so they flush the pending accesses and are delivered individually
    through [on_event]. Consumers therefore observe the same sequence a
    per-event sink would, just sliced into chunks. Every profiling driver
    feeds one of these ({!Ormp_vm.Runner.run_batched}); {!event} feeds a
    recorded or replayed trace into the same consumers. *)

type chunk = {
  instr : int array;
  addr : int array;
  size : int array;
  store : int array;  (** 0 = load, 1 = store *)
  mutable len : int;  (** valid prefix length of the four arrays *)
}

val default_capacity : int

val iter :
  chunk -> (instr:int -> addr:int -> size:int -> is_store:bool -> unit) -> unit
(** Visit the valid prefix in arrival order. *)

type t

val create :
  ?capacity:int ->
  on_chunk:(chunk -> unit) ->
  on_event:(Event.t -> unit) ->
  unit ->
  t
(** [on_chunk] consumes the first [len] entries of the buffer (the arrays
    are reused across flushes — consumers must not retain them);
    [on_event] receives the non-access events, always after any pending
    accesses have been flushed. A chunk is delivered at most once: it is
    emptied when [on_chunk] returns and when it raises, so a flush after
    a consumer's crash does not send the same accesses again. Capacity
    defaults to {!default_capacity}. @raise Invalid_argument on
    capacity <= 0. *)

val on_access : t -> instr:int -> addr:int -> size:int -> is_store:bool -> unit
(** The fast path: four int writes, no allocation; flushes when full. *)

val event : t -> Event.t -> unit
(** Feed an already-boxed event: accesses take the fast path, object
    events flush and forward. Useful for replaying recorded traces. *)

val flush : t -> unit
(** Deliver any buffered accesses now. Call once at end of run. *)

val fanout : ?capacity:int -> t list -> t
(** One batch feeding several: every access and event is replayed, in
    order, into each child batch, so one instrumented run can drive
    several batch-aware consumers (e.g. a profiler plus the sanitizer)
    without re-executing the workload. Children buffer independently and
    flush at their own chunk boundaries; {!flush} on the fanout cascades
    into every child, so the usual end-of-run flush still drains
    everything. @raise Invalid_argument on capacity <= 0. *)
