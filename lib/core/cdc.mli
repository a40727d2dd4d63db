(** The control and decomposition component (§2.3).

    The CDC is "a hub to the profiling process": it receives probe events,
    routes object probes to the OMC, queries the OMC to make each access
    object-relative, stamps it with the collected-access time counter, and
    hands the resulting {!Tuple.t} to the separation-and-compression stage
    (whatever consumer the profiler installs).

    Accesses the OMC cannot translate (stack or otherwise unprofiled
    memory) are not collected; they are counted and optionally forwarded
    raw. *)

type t

val create :
  ?grouping:Omc.grouping ->
  ?on_wild:(Ormp_trace.Event.t -> unit) ->
  site_name:(int -> string) ->
  on_tuple:(Tuple.t -> unit) ->
  unit ->
  t

val sink : t -> Ormp_trace.Sink.t
(** The per-event probe entry point: boxes nothing itself but pays one
    full range-index lookup (and the caller one event allocation) per
    access. Production runs use {!batch_tuples}; this path stays as the
    reference the batched-equivalence tests compare against. *)

(** {1 SoA tuple chunks}

    The batched probe entry point, for {!Ormp_vm.Runner.run_batched} (or
    for replaying a recorded trace with {!Ormp_trace.Batch.event}), and
    the fan-out source for the pipeline's compressors: accesses arrive as
    struct-of-arrays chunks, are translated through the OMC's MRU cache
    with {!Omc.translate_batch}, and instead of one [on_tuple] callback
    per access the translated ones are compacted (wild ones removed) into
    a reused struct-of-arrays chunk handed over once per chunk. *)

type tuples = {
  tp_instr : int array;
  tp_group : int array;
  tp_obj : int array;
  tp_offset : int array;
  tp_store : int array;  (** 0/1 *)
  mutable tp_len : int;  (** live prefix of the five arrays *)
  mutable tp_time0 : int;
      (** time stamp of tuple 0; tuple [i] has stamp [tp_time0 + i] (the
          clock advances only on translated accesses, so stamps inside a
          chunk are consecutive) *)
}

val batch_tuples :
  ?capacity:int -> t -> on_tuples:(tuples -> unit) -> unit -> Ormp_trace.Batch.t
(** The chunk is reused: consumers must copy what they keep before
    returning. The tuple sequence (concatenated over chunks) is exactly
    what {!sink} would deliver — object events flush pending accesses
    first, so the interleaving and the time stamps are identical; wild
    accesses still go to [on_wild] one at a time. *)

val omc : t -> Omc.t

val collected : t -> int
(** Accesses translated and forwarded so far; also the current value of the
    time-stamp counter. *)

val wild : t -> int
(** Accesses that missed translation. *)

(** {1 Checkpoint state} *)

type state = { s_omc : Omc.state; s_clock : int; s_wild : int }

val state : t -> state
(** Deep snapshot: the OMC state plus the time-stamp and wild counters —
    everything that determines how future events are translated and
    stamped. *)

val of_state :
  ?on_wild:(Ormp_trace.Event.t -> unit) ->
  site_name:(int -> string) ->
  on_tuple:(Tuple.t -> unit) ->
  state ->
  t
(** Rebuild a CDC mid-stream: the restored hub stamps the next collected
    access with the saved clock and translates through the rebuilt object
    table, so the tuple stream continues exactly where the snapshot was
    taken. Consumers ([on_tuple]/[on_wild]) are supplied fresh. *)
