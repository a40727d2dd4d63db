(** LEAP — the loss-enhanced access profiler (§4).

    LEAP translates accesses object-relatively (like WHOMP), then the SCC
    decomposes the tuple stream {e vertically} by instruction id and then
    by group, producing one (object, offset, time) stream per
    (instruction, group) pair. Each stream is compressed online with at
    most {!Ormp_lmad.Compressor.default_budget} LMADs; what does not fit is
    discarded into a min/max/granularity summary. The result is a compact,
    instruction-indexed lossy profile from which the {!Mdf} and {!Strides}
    post-processors extract dependence frequencies and stride patterns. *)

type key = { instr : int; group : int }

type span = { mutable t_first : int; mutable t_last : int }
(** Time-stamps of the first and last access a descriptor covers.

    The exact time dimension is too irregular to keep inside the LMADs
    (any data-dependent control flow between two executions of an
    instruction perturbs it, which would burn the whole budget on time
    breaks), so — like the paper, which measures capture "at the level of
    offsets inside objects (not including the timing information)" and
    whose omega-test example solves location equality only — LEAP keeps
    location-exact descriptors and time at descriptor granularity. *)

type stream = {
  comp : Ormp_lmad.Compressor.t;  (** 2-dim (object, offset) points *)
  spans : span Ormp_util.Vec.t;  (** one per [comp] LMAD, by creation index *)
  off : Ormp_lmad.Compressor.t;
      (** the horizontally-decomposed offset sub-stream (1-dim), §2.2/§4.1:
          "the (object, offset, time) sub-streams are also decomposed
          horizontally". Offsets stay regular even when object serials are
          visited in scattered order, so this is the stream the paper's
          sample quality ("captured ... at the level of offsets inside
          objects") and stride post-processing read. *)
  mutable dspan : span option;
      (** time span of the discarded (summarized) accesses, if any; lets
          the post-processors use the min/max/granularity summary as a
          coarse descriptor *)
}

type profile = {
  streams : (key * stream) list;
      (** one per (instruction, group), in first-appearance order *)
  store_instrs : (int, bool) Hashtbl.t;
      (** instr id -> is_store, for every instruction that appears *)
  collected : int;
  wild : int;
  dropped_streams : int;
      (** distinct (instr, group) keys refused because a stream cap was in
          force (0 unless the session layer caps stream growth) *)
  dropped_accesses : int;
      (** accesses of refused keys; [collected] still counts them *)
  elapsed : float;
}

val profile :
  ?config:Ormp_vm.Config.t ->
  ?grouping:Ormp_core.Omc.grouping ->
  ?budget:int ->
  Ormp_vm.Program.t ->
  profile

val sink :
  ?grouping:Ormp_core.Omc.grouping ->
  ?budget:int ->
  site_name:(int -> string) ->
  unit ->
  Ormp_trace.Sink.t * (elapsed:float -> profile)
(** Streaming form. This per-event path is kept as a reference: the
    batched-equivalence tests compare {!sink_batched} against it, and the
    end-to-end benchmark builds its LEAP reference profiles with it. *)

val sink_batched :
  ?grouping:Ormp_core.Omc.grouping ->
  ?budget:int ->
  site_name:(int -> string) ->
  unit ->
  Ormp_trace.Batch.t * (elapsed:float -> profile)
(** Batched form of {!sink} for {!Ormp_vm.Runner.run_batched}; translation
    goes through the OMC's MRU cache and yields an identical profile —
    {!profile} uses this path. *)

(** {1 Collector}

    The reusable collection core behind {!sink}/{!sink_batched}, exposed
    so the session layer can drive it directly: restore it from a
    checkpoint, cap its stream growth under a memory budget, and snapshot
    its exact live state. *)

type collector

type live = {
  lv_streams : (key * stream) list;
      (** first-appearance order; shares the collector's mutable stream
          records — serialize before feeding further tuples *)
  lv_stores : (int * bool) list;  (** ascending instruction id *)
  lv_dropped : key list;  (** refused keys, first-refusal order *)
  lv_dropped_accesses : int;
}
(** The collector's exact state, for checkpointing. *)

val collector : ?budget:int -> ?max_streams:int -> ?restore:live -> unit -> collector
(** [max_streams] (default 0 = unlimited) caps the number of per-key
    streams: once reached, accesses of unseen keys are counted into the
    dropped totals instead of opening streams — established streams keep
    collecting. [restore] rebuilds a collector mid-stream; admission
    decisions and totals continue exactly as on the original. *)

val collect : collector -> Ormp_core.Tuple.t -> unit
(** Feed one object-relative tuple (what the CDC emits). *)

val collect_lanes :
  collector ->
  instr:int array ->
  group:int array ->
  obj:int array ->
  offset:int array ->
  store:int array ->
  time0:int ->
  len:int ->
  unit
(** Feed [len] tuples from parallel SoA lanes — the zero-boxing batched
    path. [store] holds 0/1 flags; stamps are [time0 + i] (CDC chunks
    carry consecutive stamps). Lanes are read, never retained. *)

val collect_tuples : collector -> Ormp_core.Cdc.tuples -> unit
(** {!collect_lanes} on a CDC tuple chunk, for
    {!Ormp_core.Cdc.batch_tuples} consumers. *)

val live : collector -> live

val stream_count : collector -> int
(** Streams currently admitted (dropped keys excluded). *)

val finish : collector -> collected:int -> wild:int -> elapsed:float -> profile
(** Assemble the profile; [collected]/[wild] come from the CDC driving the
    collector. *)

val instrs : profile -> int list
(** All instruction ids seen, ascending. *)

val is_store : profile -> int -> bool
val loads : profile -> int list
val stores : profile -> int list

val streams_of : profile -> int -> (key * stream) list
(** The per-group streams of one instruction. *)

val stream_index : profile -> instr:int -> group:int -> stream option
(** [stream_index p] freezes the profile's streams into sorted lanes once
    and returns a lookup answering (instr, group) probes by binary search
    with no per-probe key allocation — for post-processors that probe many
    pairs ({!Mdf}). *)

val instr_total : profile -> int -> int
(** Collected accesses of an instruction (captured + discarded). *)

val descriptors : stream -> (Ormp_lmad.Lmad.t * span * int) list
(** The stream's effective descriptors for post-processing: every captured
    LMAD with its time span and iteration count, plus — when the stream
    overflowed — one pseudo-descriptor built from the min/max/granularity
    summary (a box lattice stepping by the granularity in each dimension)
    whose count is the number of discarded accesses it stands for. *)

val byte_size : profile -> int
(** Profile size in varint bytes (all LMADs, summaries and stream keys). *)

val compression_ratio : profile -> float
(** Raw-trace bytes ({!Ormp_util.Bytesize.fixed_record} per collected
    access) over profile bytes — the "Compression Ratio" column of
    Table 1. *)

val accesses_captured : profile -> float
(** Fraction of collected accesses represented in LMADs — the "Accesses
    captured" column of Table 1. *)

val instructions_captured : profile -> float
(** Fraction of instructions all of whose streams are fully captured — the
    "Instructions captured" column of Table 1. *)
