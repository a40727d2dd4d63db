(** Fault injection for sanitizer validation.

    Wraps any workload so that, after its normal body runs, it plants one
    instance of each requested memory-defect class at dedicated,
    recognizably-named program points ([fault:uaf-load],
    [fault:df-refree], ...). The sanitizer must attribute every planted
    defect to exactly these sites — that is what the acceptance tests
    assert — and must report nothing extra on the unwrapped workload. *)

type defect =
  | Uaf  (** free an object, then load from inside its former range *)
  | Oob  (** load a few bytes past the end of a live object *)
  | Double_free  (** free the same base twice *)
  | Leak  (** allocate from a dedicated site and never free *)
  | Wild  (** load from an address no object ever covered *)

val inject : ?defects:defect list -> Ormp_vm.Program.t -> Ormp_vm.Program.t
(** [inject p] is a program named [p.name ^ "+faults"] that runs [p] and
    then plants [defects] (default: all five). *)

(** {2 Process-level faults}

    For exercising the session supervisor: workloads that crash or hang
    {e after} completing their real body, so the events up to the fault
    are the unwrapped workload's events. *)

exception Injected_crash of string

val crashing : Ormp_vm.Program.t -> Ormp_vm.Program.t
(** [p.name ^ "+crash"]: runs [p], then raises {!Injected_crash}. *)

val hanging : ?period:int -> Ormp_vm.Program.t -> Ormp_vm.Program.t
(** [p.name ^ "+hang"]: runs [p], then loops forever emitting one access
    event per iteration over a [period]-byte scratch object — never
    returns, but stays observable to cooperative cancellation checks in
    the event stream. *)

(** {2 Injected I/O faults}

    A fault plan threaded through the session layer's file writes. Each
    counter-triggered fault fires exactly once, at the Nth operation,
    making durability failures deterministic and testable. *)
module Io : sig
  exception Torn_write of string
  (** Raised after flushing only the first half of the requested bytes. *)

  exception No_space of string
  (** Raised before writing anything (the classic full-disk failure). *)

  exception Killed of int
  (** Simulated [kill -9] immediately after the Nth checkpoint landed. *)

  type plan = {
    torn_write : int option;  (** tear the Nth {!write} *)
    no_space : int option;  (** fail the Nth {!write} with no effect *)
    kill_at_checkpoint : int option;
        (** die right after the Nth completed checkpoint *)
  }

  val none : plan

  type t

  val create : plan -> t

  val write : t -> out_channel -> string -> unit
  (** Write [s] to the channel, or fire the planned fault for this
      ordinal. *)

  val checkpoint_written : t -> unit
  (** Notify the plan that a checkpoint completed (may raise
      {!Killed}). *)
end

(** {2 Injected wire faults}

    A fault plan consulted by the `ormp client` sender once per outgoing
    data frame, numbered from 1 across the whole session (reconnects
    included), so each planned fault fires exactly once at a
    deterministic frame ordinal. The daemon must turn the resulting
    damage into a protocol error on this session alone, and a client
    retry must then resume and complete it. *)
module Net : sig
  type plan = {
    torn_frame : int option;
        (** send only half of the Nth frame, then drop the connection *)
    disconnect_before : int option;
        (** drop the connection instead of sending the Nth frame *)
    slow_frame : int option;
        (** dribble the Nth frame out in tiny delayed chunks *)
    dup_retry : int option;
        (** after the first resumed reconnect, rewind the send position
            by N events past the server-acknowledged point, forcing the
            server to deduplicate the overlap *)
  }

  val none : plan

  (** What the sender must do with the frame it is about to send. *)
  type action = Send | Torn | Slow | Disconnect

  type t

  val create : plan -> t

  val next_frame : t -> action
  (** Count one outgoing data frame and return its fate. *)

  val rewind : t -> int
  (** Events to rewind the resume position by on this reconnect (0 when
      no [dup_retry] is planned; fires once). *)
end
