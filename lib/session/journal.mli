(** The write-ahead event journal.

    Every raw probe event is appended (in {!Ormp_trace.Trace_file} line
    format) {e before} it is applied to the profilers, with a running
    CRC-32 over the event lines. A checkpoint records the journal position
    and CRC it covers; recovery replays the journal tail after the newest
    valid snapshot and detects both torn tails (truncated, tolerated) and
    divergence (CRC mismatch, fatal). *)

type writer

val create : ?io:Ormp_workloads.Faults.Io.t -> ?resume:int -> string -> writer
(** Open a fresh journal (header written), or — with [resume:crc] —
    reopen an existing one for append, continuing the running CRC from
    the recovered value. *)

val append : writer -> Ormp_trace.Event.t -> unit
(** May raise the planned {!Ormp_workloads.Faults.Io} fault. *)

val flush : writer -> unit
val close : writer -> unit

val crc : writer -> int
(** Running CRC-32 over all appended event lines. *)

val bytes : writer -> int
(** Bytes buffered/written to the journal so far (channel position). *)

type recovered = {
  events : Ormp_trace.Event.t array;  (** the full surviving journal *)
  r_crc : int;  (** CRC over all surviving event lines *)
  crc_at : int;  (** CRC after the first [at] events *)
  truncated : bool;  (** a torn tail was cut off *)
}

val recover : ?at:int -> string -> (recovered, string) result
(** Scan a journal left behind by a dead run. A final line without its
    terminating newline is a torn write: it is dropped and the file is
    truncated to the sound prefix (so a resumed writer appends cleanly).
    Fails if the journal holds fewer than [at] events or any complete
    line is unparseable. *)
