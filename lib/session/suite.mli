(** The supervised suite runner.

    Profiles every {!Ormp_workloads.Registry} workload under WHOMP, each
    in its own supervised domain ({!Supervise}): a crashing workload is
    retried and then reported as failed, a hanging one is cancelled at
    its deadline — and neither takes the suite down. The result is a
    structured partial-results report: every workload appears with its
    outcome, and healthy workloads complete normally alongside faulty
    ones.

    [faults] injects process-level faults by workload name (via
    {!Ormp_workloads.Faults.crashing}/[hanging]) — how the degraded-suite
    acceptance test drives this module. *)

type fault = Crash | Hang

val fault_name : fault -> string

type success = {
  sc_collected : int;
  sc_wild : int;
  sc_omsg : int;  (** OMSG grammar size, symbols *)
  sc_elapsed : float;
}

type entry = {
  en_workload : string;
  en_fault : fault option;  (** the fault injected into it, if any *)
  en_outcome : success Supervise.outcome;
}

type report = {
  rp_entries : entry list;  (** one per registry workload, in Table 1 order *)
  rp_completed : int;
  rp_failed : int;
  rp_timed_out : int;
  rp_elapsed : float;
}

val guard : (unit -> bool) -> Ormp_trace.Batch.t -> Ormp_trace.Batch.t
(** [guard should_stop inner] feeds [inner] and raises {!Supervise.Cancelled}
    once [should_stop ()] holds. It polls per chunk of accesses and per alloc
    or free: cheap against their profile cost, and a hang emits one or both. *)

val run :
  ?bench:bool ->
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?faults:(string * fault) list ->
  ?config:Ormp_vm.Config.t ->
  ?jobs:int ->
  ?out_dir:string ->
  unit ->
  report
(** Run the whole suite sequentially under supervision (default
    [retries = 1]). With [out_dir], each completed workload's WHOMP
    profile is saved as [<name>.whomp] there. Never raises on workload
    failure — that is the point. Each workload runs through one
    {!Pipeline} behind a guard that polls the deadline per chunk and
    per object event; [jobs > 1] (default 1) gives it a private pool of
    [jobs - 1] compressor workers ({!Pipeline.with_pool}). The saved
    profiles are byte-identical either way, and a cancelled or crashed
    task still joins its pool before the supervisor moves on. *)

val report_to_sexp : report -> Ormp_util.Sexp.t
val save_report : string -> report -> unit
