(** Per-event consumers, one boxed {!Event.t} at a time: the engine's
    direct path, the trace readers and the per-event reference profilers.
    Profiling drivers feed {!Batch} lanes instead. *)

type t = Event.t -> unit

val null : t
(** Discards everything (bare, un-instrumented run). *)
