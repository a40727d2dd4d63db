(** RASG — the raw-address Sequitur grammar baseline (§3.2).

    The conventional lossless profiler WHOMP is compared against: one
    Sequitur grammar built over the raw address stream (as in Rubin,
    Bodik & Chilimbi's profile-analysis framework), with no
    object-relative translation. *)

type profile = {
  grammar : Ormp_sequitur.Sequitur.t;
  accesses : int;
  elapsed : float;
}

val profile : ?config:Ormp_vm.Config.t -> Ormp_vm.Program.t -> profile

val sink : unit -> Ormp_trace.Sink.t * (elapsed:float -> profile)
(** Streaming form, mirroring {!Whomp.sink}: the per-event reference the
    batched-equivalence tests compare {!sink_batched} against. *)

val sink_batched : unit -> Ormp_trace.Batch.t * (elapsed:float -> profile)
(** Batched form for {!Ormp_vm.Runner.run_batched}; produces the same
    grammar as {!sink} (the pushed address sequence is identical). *)

val size : profile -> int
(** Grammar size in symbols. *)

val bytes : profile -> int
(** Serialized size estimate in bytes. *)
