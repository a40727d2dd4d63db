(** Stream decomposition (§2.2).

    {e Horizontal decomposition} splits the tuple stream into one stream
    per dimension — "a single stream of four tuples is split into four
    streams of individual tuple elements" — which is what WHOMP compresses
    (one Sequitur grammar per dimension).

    {e Vertical decomposition} groups tuples sharing a value in one
    dimension; LEAP decomposes "vertically by instruction id and then by
    group to get a number of (object, offset, time) streams". The
    time-stamp keeps sub-stream entries globally ordered.

    The collectors here materialize the decomposed streams; only the
    tests use them, as a reference for the profilers, which perform the
    same decomposition streamingly for scale. *)

module Horizontal : sig
  type t

  val create : unit -> t
  val push : t -> Tuple.t -> unit

  val instrs : t -> int array
  val groups : t -> int array
  val objects : t -> int array
  val offsets : t -> int array

  val dimensions : t -> (string * int array) list
  (** [("instr", ...); ("group", ...); ("object", ...); ("offset", ...)] —
      the four streams WHOMP feeds to Sequitur, in paper order. *)

  val length : t -> int
end

module Vertical : sig
  type key = { instr : int; group : int }

  type t

  val create : unit -> t
  val push : t -> Tuple.t -> unit

  val keys : t -> key list
  (** In first-appearance order. *)

  val stream : t -> key -> (int * int * int) array
  (** The (object, offset, time) sub-stream for a key; [] for unknown
      keys. *)

  val iter : t -> (key -> (int * int * int) array -> unit) -> unit

  val reassemble : t -> (key * (int * int * int)) array
  (** All sub-stream entries merged back into global time order — the
      paper's point that time-stamps make vertical decomposition
      reversible. *)
end
