(** The one compressor worker pool: [jobs] {!Worker}s, each one SPSC ring
    plus one consumer thread, running thunks in push order.

    The pool knows nothing about grammars. A client pins each of its
    streams to one worker index and dispatches a closure per chunk; since
    a worker runs its ring strictly in FIFO order, every stream is
    consumed in producer order however many clients share the pool.
    {!Ormp_session.Pipeline} is that client, both for a session's private
    pool and for the daemon's shared one.

    Like {!Worker}, the pool is a functor over the worker seam: the
    top-level module is [Make (Worker)] (real domains), and
    [Ormp_modelcheck] applies [Make] to the traced worker to check slot
    pinning and the drain barrier over every interleaving. *)

module type S = sig
  type t

  val spawn : ?capacity:int -> ?name:string -> jobs:int -> unit -> t
  (** [jobs] workers ([jobs >= 1]); [capacity] sizes every ring and
      [name] prefixes their telemetry labels ([name0], [name1], ...). *)

  val size : t -> int

  val dispatch : t -> int -> (unit -> unit) -> unit
  (** [dispatch t i th] queues [th] on worker [i]. Producer only; blocks
      while that ring is full. A thunk that raises fails its worker (see
      {!Worker}), so clients sharing a pool should catch their own
      exceptions inside the thunk. *)

  val drain : t -> unit
  (** Producer only: barrier until every dispatched thunk has run. *)

  val stop : t -> unit
  (** Join every worker, even when one of them failed; re-raises the
      first failure afterwards. Idempotent. *)

  val pending : t -> int
  (** Thunks dispatched but not yet run (racy). *)

  val worker_occupancy : t -> int -> float
  (** Instantaneous ring occupancy of one worker, in [0, 1] (racy). *)

  val occupancy : t -> float
  (** Maximum {!worker_occupancy} across the pool (racy). *)
end

module Make (Worker : Worker.S) : S

include S
