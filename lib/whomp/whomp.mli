(** WHOMP — the whole-stream memory profiler (§3).

    WHOMP is the lossless object-relative profiler: the CDC translates
    every collected access into a 5-tuple, the SCC decomposes the stream
    horizontally along the four dimensions (instruction, group, object,
    offset — time is implicit in stream position), and each dimension
    stream is fed to its own Sequitur compressor. The output is the OMSG:
    the object-relative multi-dimensional Sequitur grammar. *)

type profile = {
  dims : (string * Ormp_sequitur.Sequitur.t) list;
      (** the four dimension grammars, in paper order: instr, group,
          object, offset *)
  collected : int;  (** accesses translated and recorded *)
  wild : int;  (** accesses outside any profiled object (not collected) *)
  groups : Ormp_core.Omc.group_info list;
  lifetimes : Ormp_core.Omc.lifetime list;
      (** run-dependent auxiliary output (object lifetimes), kept separate
          from the invariant grammars as §2.3 prescribes *)
  elapsed : float;  (** collection CPU time, probes + compression *)
}

val profile :
  ?config:Ormp_vm.Config.t ->
  ?grouping:Ormp_core.Omc.grouping ->
  Ormp_vm.Program.t ->
  profile
(** Run the program under WHOMP instrumentation. *)

(** {1 Collector}

    The four-grammar SCC core behind {!sink}/{!sink_batched}, exposed so
    the session layer can checkpoint and restore it: a grammar snapshot is
    its {!Ormp_sequitur.Sequitur.rules} listing, and a collector rebuilt
    around grammars restored with {!Ormp_sequitur.Sequitur.of_rules}
    continues the decomposition byte-for-byte. *)

type collector

val collector :
  ?restore:
    Ormp_sequitur.Sequitur.t
    * Ormp_sequitur.Sequitur.t
    * Ormp_sequitur.Sequitur.t
    * Ormp_sequitur.Sequitur.t ->
  unit ->
  collector
(** Fresh (or restored) dimension grammars, in paper order: instr, group,
    object, offset. *)

val collect : collector -> Ormp_core.Tuple.t -> unit
(** Decompose one tuple into the four grammars. *)

val collect_tuples : collector -> Ormp_core.Cdc.tuples -> unit
(** Decompose a whole SoA tuple chunk: each lane goes into its grammar
    via [push_batch]. Symbol order per grammar matches the per-tuple
    path, so profiles stay byte-identical. *)

val collector_dims : collector -> (string * Ormp_sequitur.Sequitur.t) list
(** The live grammars, named, in paper order — the {!profile} [dims]. *)

val publish_dim_gauges : (string * Ormp_sequitur.Sequitur.t) list -> unit
(** Publish per-grammar telemetry gauges (symbols/rules/input per named
    dimension). No-op with telemetry disabled; called at finalize. *)

val sink :
  ?grouping:Ormp_core.Omc.grouping ->
  site_name:(int -> string) ->
  unit ->
  Ormp_trace.Sink.t * (elapsed:float -> profile)
(** Streaming form: a probe sink plus a finalizer, for callers that drive
    the VM themselves. This per-event path (through {!Ormp_core.Cdc.sink})
    is kept as the reference the batched-equivalence tests compare
    {!sink_batched} and the pipeline against. *)

val sink_batched :
  ?grouping:Ormp_core.Omc.grouping ->
  site_name:(int -> string) ->
  unit ->
  Ormp_trace.Batch.t * (elapsed:float -> profile)
(** Batched form of {!sink} for {!Ormp_vm.Runner.run_batched}: translation
    goes through the OMC's MRU cache ({!Ormp_core.Cdc.batch_tuples}) and
    produces byte-identical grammars — {!profile} uses this path. *)

val omsg_size : profile -> int
(** Total grammar size (symbols on all right-hand sides, all four
    grammars). *)

val omsg_bytes : profile -> int
(** Serialized size estimate in bytes (varint accounting). *)

val expand : profile -> Ormp_core.Tuple.t list
(** Losslessly reconstruct the collected object-relative access stream
    from the four grammars (is_store is not part of the grammars and is
    reconstructed as [false]). Time stamps are re-derived from position. *)
