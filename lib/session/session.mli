(** Crash-safe profiling sessions.

    A session runs one workload under all three profilers at once (WHOMP,
    the RASG baseline, and LEAP) inside a directory that makes the run
    durable: every raw probe event is written ahead to a {!Journal},
    periodic {!Snapshot}s capture the exact profiler state, and a killed
    run resumes from the newest valid snapshot. Resume replays the
    journal tail, then deterministically re-executes the workload
    skipping the already-incorporated prefix (CRC-checked against the
    journal) — producing profiles {e byte-identical} to an uninterrupted
    run.

    Under a memory budget, a watchdog rotates the live grammars into
    sealed on-disk epochs and the LEAP collector caps stream growth;
    every such event is reported as a {!Snapshot.degradation}. *)

type options = {
  checkpoint_every : int;  (** snapshot every N raw events; 0 = never *)
  watch_every : int;  (** poll the memory watchdog every N events; 0 = never *)
  grammar_budget : int;
      (** total live grammar symbols (4 WHOMP dims + RASG) above which the
          watchdog rotates; 0 = unlimited *)
  max_streams : int;  (** LEAP per-key stream cap; 0 = unlimited *)
  leap_budget : int option;  (** per-stream LMAD budget override *)
  keep : int;  (** snapshots retained (older ones pruned) *)
}

val default_options : options
(** No checkpoints, no watchdog, no caps, [keep = 2]. *)

type outcome = {
  oc_dir : string;
  oc_workload : string;
  oc_position : int;  (** raw events consumed *)
  oc_collected : int;
  oc_wild : int;
  oc_checkpoints : int;  (** snapshots written by this process *)
  oc_resumed_from : int option;  (** snapshot position, if resumed *)
  oc_replayed : int;  (** journal-tail events replayed, if resumed *)
  oc_rotations : int;
  oc_epochs : Snapshot.epoch list;
  oc_degradations : Snapshot.degradation list;
  oc_elapsed : float;
}

type status_info = {
  st_workload : string;
  st_snapshot : (int * int) option;  (** (ordinal, position) {!restore} starts from *)
  st_journal : int option;  (** surviving journal events *)
  st_complete : bool;  (** final profiles + report written *)
}

val find_workload : string -> (Ormp_vm.Program.t, string) result
(** Resolve by {!Ormp_workloads.Registry} name/spec-ref, then by
    {!Ormp_workloads.Micro} name. *)

val heartbeat_file : string
(** Name of the heartbeat sample file inside a session directory
    ([heartbeat]) — one {!Ormp_telemetry.Heartbeat.sample} s-expression
    per line, append-only. *)

val journal_file : string
(** [journal.trace]: a directory holding one has a session to {!restore}. *)

val report_file : string
(** [report], written last: a directory holding one is finished. *)

(** {1 The live session} *)

type t
(** A session in progress: its {!Pipeline}, journal, and triggers. Its
    events come from the VM ({!run}, {!resume}) or off the wire
    ([ormp serve]); both recover through the one {!restore}. *)

val start :
  ?io:Ormp_workloads.Faults.Io.t ->
  ?heartbeat_every:int ->
  ?pool:Ormp_trace.Pool.t * int ->
  ?site_name:(int -> string) ->
  options:options ->
  dir:string ->
  workload:string ->
  unit ->
  t
(** A fresh session in the existing [dir]. [pool] and [site_name] go to
    {!Pipeline.create}; [heartbeat_every] is as for {!run}. *)

val restore :
  ?io:Ormp_workloads.Faults.Io.t ->
  ?heartbeat_every:int ->
  ?pool:Ormp_trace.Pool.t * int ->
  ?site_name:(int -> string) ->
  options:options ->
  dir:string ->
  workload:string ->
  unit ->
  (t, string) result
(** The one recovery path: the newest snapshot whose seal and journal
    CRC both check (else the empty state at position 0), then the journal
    tail replayed, then the journal reopened for append. [Error], never
    an exception, when the journal is unreadable or its replay raises —
    a pooled compressor's parked failure included; only an injected
    {!Ormp_workloads.Faults.Io.Killed} escapes. *)

val append : t -> Ormp_trace.Event.t -> unit
(** Journal one event, apply it, fire the triggers due. An event the
    pipeline rejects raises after it is journaled: {!restore} of this
    session then fails closed. *)

val append_chunk : t -> Ormp_trace.Batch.chunk -> off:int -> len:int -> unit
(** {!append} of the accesses [off, off + len) of a chunk, straight from
    its lanes: the chunk is cut at every position where a trigger is due,
    and each run is journaled ({!Journal.append_chunk}) and then applied
    ({!Pipeline.apply_chunk}). Journal bytes, CRC, triggers, snapshots,
    degradations and profiles are those of one [append] per access,
    including a journal that fails mid-chunk and turns off.
    @raise Invalid_argument when the range is outside [0, chunk.len). *)

val flush : t -> unit
(** Make the journal durable through {!position}. *)

val close : t -> unit
(** Flush and close the journal, leaving [dir] to {!restore}. Idempotent. *)

val finish : t -> elapsed:float -> outcome
(** {!close}, then write the three profiles and the [report]. *)

val position : t -> int
val pipeline : t -> Pipeline.t
val journal_bytes : t -> int

(** {1 Driving a workload} *)

val run :
  ?io:Ormp_workloads.Faults.Io.t ->
  ?heartbeat_every:int ->
  ?jobs:int ->
  ?config:Ormp_vm.Config.t ->
  ?options:options ->
  dir:string ->
  workload:string ->
  unit ->
  (outcome, string) result
(** Start a fresh session in [dir] (created; must not already hold one).
    Writes [manifest], [journal.trace], snapshots, and on completion
    [whomp.profile] / [rasg.profile] / [leap.profile] plus a [report].

    [heartbeat_every] (0 = off, the default) appends a progress sample to
    {!heartbeat_file} every N raw events. The cadence is deliberately not
    stored in the manifest: it observes a process, it does not identify
    the session, and resume is free to pick a different one.

    [jobs] (default 1 = serial) sizes the session's {!Pipeline}: with
    [jobs > 1] the five grammars are maintained on a private pool of
    [jobs - 1] workers, quiesced at every checkpoint, rotation and
    heartbeat (LEAP stays on the producer). Like [heartbeat_every] it is
    a per-process execution knob, not part of the session's identity —
    every profile, snapshot and epoch file is byte-identical for any
    [jobs], and a session may be resumed with a different value than it
    started with.

    Raises whatever kills the run — notably
    {!Ormp_workloads.Faults.Io.Killed} from an injected crash — after
    making the journal durable, so a later {!resume} can continue. *)

val resume :
  ?io:Ormp_workloads.Faults.Io.t ->
  ?heartbeat_every:int ->
  ?jobs:int ->
  dir:string ->
  unit ->
  (outcome, string) result
(** Continue a session killed mid-run: {!restore} it, re-execute the
    remainder, and finish exactly as {!run} would have — the three
    profile files are byte-identical. When {!restore} returns [Error]
    (an unreadable or poisoned journal), the session starts over from
    scratch under the same manifest: correct, just slower. *)

val status : dir:string -> (status_info, string) result
