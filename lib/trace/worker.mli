(** A dedicated consumer thread behind one {!Spsc} ring.

    One worker owns one stream (or a fixed set of streams multiplexed
    onto it): messages pushed from the producer are processed by [f] on
    the worker's thread, strictly in push order. The state [f] mutates
    belongs to the worker; the producer may touch it only between
    [drain] (or [stop]) and its next [push] — those operations establish
    the happens-before edges both ways.

    Backpressure is blocking and adaptive: [push] spins briefly, then
    sleeps with exponentially doubling microsleeps capped at 1 ms —
    essential on machines with fewer cores than domains, where pure
    spinning starves the consumer it is waiting on, and where a slow ramp
    to a useful sleep quantum burns a syscall per step.

    An exception escaping [f] marks the worker failed; the failure
    surfaces (with its original backtrace) from the producer's next
    [push], [drain] or [stop]. A failed worker keeps consuming and
    discarding so the producer can never deadlock against it.

    Like {!Spsc}, the module is a functor over the transport seam: the
    top-level module is [Make (Atomics_intf.Real_sched)] (real domains),
    and [Ormp_modelcheck] instantiates [Make] with a traced scheduler to
    verify the drain barrier, the shutdown protocol and failure
    containment over every interleaving at small configurations.

    Telemetry (when enabled), all per-ring under [ring.<name>.]:
    high-water depth gauge [depth], peak occupancy-fraction gauge
    [occupancy], stall counter [stalls] (pushes that had to wait), message
    counter [msgs], producer wait-spin counter [push_spins], consumer
    wait-spin counter [pop_spins], and microsleep counter [sleeps]
    (producer + consumer). *)

module type S = sig
  module Ring : Spsc.S

  type 'a t

  val spawn : ?capacity:int -> name:string -> f:('a -> unit) -> unit -> 'a t
  (** Spawn the consumer thread. [capacity] is the ring size in messages
      (default [Ring.default_capacity]); [name] labels telemetry. *)

  val push : 'a t -> 'a -> unit
  (** Producer only. Blocks while the ring is full. *)

  val drain : 'a t -> unit
  (** Producer only. Block until every pushed message has been fully
      processed. On return the worker is idle and its state is safe to
      read — and to replace, provided nothing is pushed concurrently. *)

  val stop : 'a t -> unit
  (** Signal shutdown and join the thread. Idempotent. Re-raises a worker
      failure after the join, so the thread is never leaked. *)

  val pending : 'a t -> int
  (** Messages pushed but not yet fully processed (racy, for telemetry). *)

  val occupancy : 'a t -> float
  (** Instantaneous ring occupancy in [0, 1] (racy, producer-side): the
      backpressure signal {!Pool.occupancy} aggregates, which the daemon
      sheds load on. *)

  (** Model-checking seam: the shared transport state and an injection
      point for alternative consumer loops. This exists so the litmus
      suite can run a {e deliberately reverted} consumer (the pre-PR-5
      shutdown race) against the real push/stop machinery and watch the
      checker find the lost message; production code must use {!spawn}. *)
  module Private : sig
    type 'a shared

    val ring : 'a shared -> 'a Ring.t
    val stop_requested : 'a shared -> bool

    val spawn_with :
      ?capacity:int ->
      name:string ->
      f:('a -> unit) ->
      consumer:('a shared -> ('a -> unit) -> unit) ->
      unit ->
      'a t
    (** Spawn a worker whose consumer loop is [consumer shared handle]
        instead of the production loop, where [handle] is the
        failure-guarded message step: apply [f] (parking any exception
        for the producer), then advance the processed counter. No
        telemetry is recorded for the consumer's waits. *)
  end
end

module Make (Sc : Atomics_intf.SCHED) : S

include S
