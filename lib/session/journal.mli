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
(** Render the event's line in place, write it with one [output] and
    extend the CRC over the same bytes; allocates nothing. Under a fault
    plan the line is one {!Ormp_workloads.Faults.Io.write}, and the
    planned fault may raise. *)

val append_chunk : writer -> Ormp_trace.Batch.chunk -> off:int -> len:int -> unit
(** [append] of the accesses [off, off + len) of a chunk, rendered
    straight from its lanes: the same bytes and CRC as one [append] per
    access. Without a fault plan the lines go out in 64 KiB [output]s;
    under one, each line is still its own write, so a fault lands on the
    same event it would with [append] (the lines before it are written
    and in the CRC).
    @raise Invalid_argument when the range is outside [0, chunk.len). *)

val crc_event : Ormp_trace.Trace_file.buffer -> int -> Ormp_trace.Event.t -> int
(** [crc_event scratch crc ev] is the CRC a journal at [crc] holds after
    appending [ev], rendered into [scratch] (cleared first): how replay
    re-derives the CRC of events it does not write. *)

val flush : writer -> unit
val close : writer -> unit

val crc : writer -> int
(** Running CRC-32 over all appended event lines. *)

val bytes : writer -> int
(** The journal's size, buffered bytes included: the header and, for a
    resumed writer, every byte already in the file count. *)

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
