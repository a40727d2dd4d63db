(** The lossless memory-dependence profiler (§4.2.1's ground truth).

    "A lossless raw-address based profiler which records the dependence
    information of all the memory operations in a program" — it remembers
    the last writer of every location, so each load execution is charged to
    exactly one store instruction (read-after-write, last-writer
    semantics, which is what makes per-load frequencies sum to at most
    100% as in the paper's example). It is exact, and correspondingly slow
    and memory-hungry; it exists to calibrate the lossy profilers. *)

type t

val create : unit -> t

val batch : t -> Ormp_trace.Batch.t
(** Every load and store of a chunk; object events are ignored. *)

val deps : t -> Dep_types.dep list
(** All (store, load) pairs with at least one conflict, frequency =
    conflicts / load executions. Sorted by (store, load). *)

val load_execs : t -> int -> int
(** Executions seen for a load instruction. *)

val locations : t -> int
(** Distinct addresses ever written (the profiler's memory footprint). *)

val profile : ?config:Ormp_vm.Config.t -> Ormp_vm.Program.t -> t
(** Convenience: run the program under this profiler alone. *)
