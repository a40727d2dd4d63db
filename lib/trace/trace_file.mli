(** Raw probe-event traces on disk.

    Trace-based memory profilers (the paper's reference [5] lineage)
    separate trace collection from analysis: record the instrumented run
    once, replay it through any profiler later. The format is a plain text
    line per event:

    {v ormp-trace 1
A <instr> <addr> <size> <0|1>      an executed load (0) or store (1)
+ <site> <addr> <size> <type|->    object creation
- <addr>                           object destruction v}

    Reading streams line by line, so traces larger than memory replay
    fine. *)

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
(** Decode one event line (header excluded). *)

val writer : out_channel -> Sink.t
(** A sink that appends every event to the channel (header written
    immediately). The caller owns the channel. *)

val save : string -> Event.t array -> unit
(** Write a recorded event array to a file. *)

val replay : ?on_truncated:(string -> unit) -> string -> Sink.t -> (int, string) result
(** Stream the events of a trace file into a sink; returns the event
    count, or a parse/IO error naming the offending line.

    A final record that both fails to parse and lacks its terminating
    newline is treated as a torn write from a crashed recorder: the
    events before it are delivered, [on_truncated] is told (default:
    warns on stderr), and the result is [Ok]. *)

val load : string -> (Event.t array, string) result
(** Materialize a whole trace (tests and small traces). *)
