(** The write-ahead event journal.

    Every raw probe event is appended (in {!Ormp_trace.Trace_file} line
    format) {e before} it is applied to the profilers, with a running
    CRC-32 over the event lines. A checkpoint records the journal position
    and CRC it covers; recovery reads the journal, checks the CRC of the
    prefix the newest valid snapshot covers without parsing it, returns
    the tail after it, and detects both torn tails (dropped, tolerated)
    and divergence (CRC mismatch, fatal). Recovery never writes; reopening
    for append cuts a torn tail off. *)

type recovered = {
  tail : Ormp_trace.Event.t array;  (** the events after the first [at] *)
  count : int;  (** the events in the sound prefix *)
  crc_at : int;  (** CRC after the first [at] events *)
  r_crc : int;  (** CRC over every sound event line *)
  sound : int;  (** the byte offset where the sound prefix ends *)
  truncated : bool;  (** a torn final line follows the sound prefix *)
}

type writer

val create : ?io:Ormp_workloads.Faults.Io.t -> ?resume:recovered -> string -> writer
(** Open a fresh journal (header written), or — with [resume:r], what
    {!recover} read from the same file — reopen it for append: a torn
    final line is truncated away first, and the running CRC continues
    from [r.r_crc]. *)

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
    appending [ev], rendered into [scratch] (cleared first): how a
    restore's replay and a resume's re-execution re-derive the CRC of
    events they do not write. *)

val crc_chunk :
  Ormp_trace.Trace_file.buffer -> int -> Ormp_trace.Batch.chunk -> off:int -> len:int -> int
(** {!crc_event} over the accesses [off, off + len) of a chunk, rendered
    from its lanes: how a resume's re-execution checks its prefix. *)

val flush : writer -> unit
val close : writer -> unit

val crc : writer -> int
(** Running CRC-32 over all appended event lines. *)

val bytes : writer -> int
(** The journal's size, buffered bytes included: the header and, for a
    resumed writer, every byte already in the file count. *)

val recover : ?at:int -> string -> (recovered, string) result
(** Read a journal left behind by a dead (or a running) writer, in one
    streaming pass through {!Ormp_trace.Trace_file.scan}: the first [at]
    lines are counted and CRC'd as read, not parsed; the rest are parsed
    into [tail]. A final line without its terminating newline is a torn
    write: it is dropped and reported in [truncated], and the file is
    left as it is. Fails if the journal holds fewer than [at] events or
    any complete line after them does not parse. *)
