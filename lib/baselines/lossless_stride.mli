(** The lossless stride profiler (§4.2.2's ground truth).

    A re-implementation of Wu's stride profiler "with a setting to make it
    lossless and track all the strides for a given instruction": for every
    load/store instruction it records the full multiset of deltas between
    consecutive raw addresses the instruction touches. An instruction is
    {e strongly (single-)strided} when one stride accounts for at least
    70% of its accesses (the paper adopts Wu's definition). *)

type t

val create : unit -> t

val batch : t -> Ormp_trace.Batch.t
(** Every load and store of a chunk; object events are ignored. *)

val strides : t -> int -> (int * int) list
(** [(stride, occurrences)] multiset for an instruction, most frequent
    first. *)

val execs : t -> int -> int
(** Executions seen for the instruction. *)

val strongly_strided : ?threshold:float -> t -> (int * int) list
(** Instructions (with their dominant stride) whose dominant stride covers
    at least [threshold] (default 0.7) of their stride instances.
    Instructions executed fewer than 2 times never qualify. Sorted by
    instruction id. *)
