(** The object-relative memory sanitizer.

    A batched probe-stream consumer — the same {!Ormp_trace.Batch}
    interface the profilers use, so sanitizer dilation is measurable with
    the same harness — that maintains its own live/freed object database
    and flags:

    - {e use-after-free}: an access inside the former range of a freed
      object whose memory has not been reused since;
    - {e out-of-bounds}: an access within [slack] bytes of a live object
      but outside it;
    - {e double-free} / {e invalid-free}: destruction probes for freed
      bases or non-base addresses;
    - {e unmapped accesses}: everything else that hits no object
      (warning severity — stack-like raw accesses are unprofiled by
      design, but a workload built purely on objects should have none);
    - {e leaks}: objects still live at run end (note severity, reported
      only on request — the workload suite deliberately holds most data
      until exit).

    Every finding carries the object-relative attribution of §2.3:
    (group label, object serial, offset), plus the implicated object's
    allocation/free sites and times. Findings are deduplicated by
    (kind, program point, object) with occurrence counts.

    The sanitizer's clock advances once per access that resolves to a
    live object — the same rule as the CDC's collected-access counter —
    so finding times are directly comparable to profile time stamps. *)

type t

val default_slack : int
(** 64 bytes: how far outside a live object an access may land and still
    be classified as out-of-bounds against that object rather than as an
    unmapped access. *)

val create : ?slack:int -> unit -> t
(** @raise Invalid_argument on negative slack. *)

val batch : ?capacity:int -> t -> Ormp_trace.Batch.t
(** The batched fast path; accesses are checked straight out of the
    chunk arrays with a one-entry MRU object cache. *)

val finish :
  ?leaks:bool ->
  ?site_name:(int -> string) ->
  ?is_static_site:(string -> bool) ->
  subject:string ->
  t ->
  Report.t
(** Resolve program-point labels via [site_name] (typically the run's
    instruction table) and build the severity-ranked report. With
    [~leaks:true], still-live non-static objects are reported as one
    note per allocation site with the site's leaked-object count;
    [is_static_site] (default: label starts with ["static:"], the
    engine's convention) exempts global variables. *)

val accesses : t -> int
(** Access probes observed. *)

val collected : t -> int
(** Accesses that resolved to a live object (the sanitizer clock). *)

val run :
  ?config:Ormp_vm.Config.t -> ?slack:int -> ?leaks:bool -> Ormp_vm.Program.t -> Report.t
(** Instrument one workload run with only the sanitizer attached and
    report. *)
