(** Raw probe-event traces on disk.

    Trace-based memory profilers (the paper's reference [5] lineage)
    separate trace collection from analysis: record the instrumented run
    once, replay it through any profiler later. The session journal is
    the same format. A trace is a header line, then one text line per
    event:

    {v ormp-trace 1
A <instr> <addr> <size> <0|1>      an executed load (0) or store (1)
+ <site> <addr> <size> <type|->    object creation
- <addr>                           object destruction
- <addr> <site>                    object destruction at a free site v}

    This module is the one owner of that syntax. A line is valid iff it
    is exactly what {!render} writes for the event it denotes:
    - integers are canonical decimals in [min_int..max_int] (no [+], no
      leading zeros, no [-0], no base prefixes or underscores);
    - fields are separated by single spaces, with no leading or trailing
      blanks or CR;
    - an [A] line has exactly 5 fields and a [-] line 2 or 3;
    - a [+] line's type name is everything after its fourth field: not
      empty, not ending in a blank (what [String.trim] strips), and [-]
      means none;
    - the header line is exactly [ormp-trace 1], and a blank line is an
      error.

    Every writer (the session journal, {!writer}, {!save} and the serve
    wire's [Ev] payloads) writes only such lines, so a reader may CRC a
    line's bytes as read and get the CRC its writer took.

    One scanner ({!scan}) reads every trace: it streams the file and
    never writes to it. Every newline-terminated line must parse; a final
    line without its newline is a torn write from a dead writer, whether
    or not it parses, and is dropped and reported. *)

val header : string
(** The first line of every trace file. *)

(** {1 Rendering}

    One renderer produces every line: {!writer}, the session journal (and
    the CRC it keeps over its lines), and the [Ev] payloads of the serve
    wire protocol. It writes into a caller-owned, growable buffer and
    allocates nothing once the buffer fits the line. *)

type buffer
(** Rendered lines, appended one after another. Owned by one domain. *)

val buffer : unit -> buffer
val clear : buffer -> unit

val length : buffer -> int
(** Bytes rendered since the last {!clear}. *)

val bytes : buffer -> Bytes.t
(** The buffer's storage; its first {!length} bytes are the rendered
    lines. A later {!render} may replace it. *)

val render : buffer -> Event.t -> unit
(** Append the event's line, newline included. *)

val render_access : buffer -> instr:int -> addr:int -> size:int -> is_store:bool -> unit
(** [render] of an [Access] straight from lane values, with no event. *)

val event_line : Event.t -> string
(** The line {!render} appends, as a fresh string. *)

val parse_line : string -> (Event.t, string) result
(** Decode one event line, given without its newline, under the syntax
    above. [Ok ev] means [event_line ev] is the line followed by a
    newline, and {!render}'s line for any event is accepted unless the
    event's type name is empty, holds a newline or ends in a blank. *)

val writer : out_channel -> Batch.t
(** A batch that appends every event to the channel (header written
    immediately), a chunk's lines in one [output]. The caller owns the
    channel and flushes the batch before closing it. *)

val save : string -> Event.t array -> unit
(** Write a recorded event array to a file. *)

(** {1 Reading} *)

type scan = {
  lines : int;  (** complete lines after the header, skipped ones included *)
  sound : int;  (** the byte offset where the last complete line ends *)
  torn : bool;  (** bytes without a final newline followed, and were dropped *)
}

val scan : ?skip:int -> ?line:(string -> unit) -> string -> Sink.t -> (scan, string) result
(** [scan path sink] streams the trace at [path] and checks its header.
    Each complete line, without its newline, goes to [line]; every line
    after the first [skip] (default 0) is parsed and its event fed to
    [sink]. A torn final line is neither passed to [line] nor parsed.
    Errors name the physical line, the header being line 1. The file is
    only read. *)

val replay : ?on_truncated:(string -> unit) -> string -> Sink.t -> (int, string) result
(** {!scan} into a sink; returns the event count. A torn final line is
    reported to [on_truncated] (default: a warning on stderr) with its
    byte offset, and the result is [Ok]. *)

val load : string -> (Event.t array, string) result
(** Materialize a whole trace through {!replay} (tests and small traces). *)
