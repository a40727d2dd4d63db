(* Classic SPSC ring over monotonic positions: [tail] counts pushes,
   [head] counts pops, slot = position mod capacity. Each side owns one
   atomic and keeps a cached copy of the other side's, refreshed only
   when the cached value says the ring looks full (producer) or empty
   (consumer) — the common case touches no shared line at all beyond its
   own atomic.

   The whole module is a functor over the transport's ATOMICS seam
   (Atomics_intf): production applies it to the stdlib Atomic, the model
   checker to a traced implementation whose every get/set is a
   scheduling point. *)

(* lint:hot-path *)

module type S = sig
  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  val try_push : 'a t -> 'a -> bool
  val try_pop : 'a t -> 'a option
  val length : 'a t -> int
  val capacity : 'a t -> int
end

module Make (A : Atomics_intf.ATOMICS) = struct
  type 'a t = {
    slots : 'a option array;
    cap : int;
    head : int A.t;  (* consumer position; written by the consumer only *)
    _pad1 : int array;
        (* Best-effort cache-line spacing: the pad keeps the two atomics
           (allocated consecutively) from sharing a line, so producer and
           consumer don't false-share. The pads must be reachable from the
           record or the GC would slide the atomics back together. *)
    tail : int A.t;  (* producer position; written by the producer only *)
    _pad2 : int array;
    mutable cached_head : int;  (* producer's last view of [head] *)
    mutable cached_tail : int;  (* consumer's last view of [tail] *)
  }

  let default_capacity = 16

  let pad () = Array.make 15 0

  let create ?(capacity = default_capacity) () =
    if capacity < 1 then invalid_arg "Spsc.create: capacity must be at least 1";
    let head = A.make ~name:"head" 0 in
    let _pad1 = pad () in
    let tail = A.make ~name:"tail" 0 in
    let _pad2 = pad () in
    {
      slots = Array.make capacity None;
      cap = capacity;
      head;
      _pad1;
      tail;
      _pad2;
      cached_head = 0;
      cached_tail = 0;
    }

  let capacity t = t.cap

  (* The two reads are not a consistent snapshot: the other side may
     advance its position between them, so the raw difference can be
     transiently negative (stale tail, fresh head) or above capacity
     (fresh tail, stale head). Clamping keeps the documented [0, cap]
     contract for telemetry gauges; the exact value is only meaningful on
     a quiesced ring either way. *)
  let length t =
    let n = A.get t.tail - A.get t.head in
    if n < 0 then 0 else if n > t.cap then t.cap else n

  let try_push t v =
    let tail = A.get t.tail in
    let full = tail - t.cached_head >= t.cap in
    let full =
      if not full then false
      else begin
        t.cached_head <- A.get t.head;
        tail - t.cached_head >= t.cap
      end
    in
    if full then false
    else begin
      t.slots.(tail mod t.cap) <- Some v;
      (* Release: the slot write above becomes visible before the new tail. *)
      A.set t.tail (tail + 1);
      true
    end

  let try_pop t =
    let head = A.get t.head in
    let empty = t.cached_tail - head <= 0 in
    let empty =
      if not empty then false
      else begin
        t.cached_tail <- A.get t.tail;
        t.cached_tail - head <= 0
      end
    in
    if empty then None
    else begin
      let i = head mod t.cap in
      let v = t.slots.(i) in
      t.slots.(i) <- None;
      (* Release: the slot is cleared before the producer may reuse it. *)
      A.set t.head (head + 1);
      v
    end
end

include Make (Atomics_intf.Real)
