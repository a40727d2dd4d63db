(** Bounded lock-free single-producer / single-consumer ring buffer.

    The transport under the pipeline-parallel SCC: the translating
    producer publishes batch-granularity messages to one dedicated
    compressor domain per decomposed stream. Exactly one domain may call
    [try_push] and exactly one (other) domain may call [try_pop]; under
    that discipline every operation is wait-free and the messages arrive
    in push order.

    Publication safety follows from the OCaml memory model: a slot is
    written before the tail atomic is advanced, and the consumer reads
    the tail before the slot, so the slot contents happen-before the pop
    (and symmetrically for slot reuse via the head).

    The implementation is a functor over {!Atomics_intf.ATOMICS}: the
    top-level module is [Make (Atomics_intf.Real)] (stdlib atomics), and
    the model checker ([Ormp_modelcheck]) instantiates [Make] with a
    traced implementation to verify these claims exhaustively at small
    capacities rather than by review. *)

module type S = sig
  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  (** Ring with room for [capacity] messages (default 16). Capacity 1 is
      legal — the ring degenerates to a rendezvous slot. Raises
      [Invalid_argument] on capacity < 1. *)

  val try_push : 'a t -> 'a -> bool
  (** Producer only. [false] when the ring is full (backpressure: the
      caller decides how to wait). *)

  val try_pop : 'a t -> 'a option
  (** Consumer only. [None] when the ring is empty. The slot is cleared so
      the ring never pins a consumed message for the GC. *)

  val length : 'a t -> int
  (** Messages currently buffered, clamped to [[0, capacity]]. The two
      position reads are racy by nature (either end may be mid-operation),
      so the raw difference can transiently fall outside the ring's real
      bounds; the clamp guarantees telemetry gauges never record a
      negative or over-capacity depth. Exact when the ring is quiesced. *)

  val capacity : 'a t -> int
end

module Make (A : Atomics_intf.ATOMICS) : S

include S
