(** The `ormp serve` wire protocol: length-prefixed, CRC-sealed binary
    frames whose bulk payload is the existing SoA batch format.

    Layout of one frame on the wire:

    {v
      u32 BE  payload length N   (1 <= N <= max_frame)
      N bytes payload            (first byte = message tag)
      u32 BE  CRC-32 of the payload
    v}

    A frame whose length field is out of range, whose CRC does not match,
    or whose payload does not parse is a {e protocol error}: the daemon
    kills only the offending connection's session (which stays resumable
    on disk) and never lets the error travel to other sessions.

    Access events travel as struct-of-arrays [Batch] frames — the same
    lane layout {!Ormp_trace.Batch.chunk} uses in memory — tagged with
    the absolute event position of their first event so that duplicated
    retries are detected and dropped exactly. Alloc/free events travel as
    single [Ev] frames in {!Ormp_trace.Trace_file} line syntax, which is
    also what the server journals. *)

type msg =
  | Hello of { token : string; workload : string; ack_every : int }
      (** Open or resume the session named [token]. [ack_every > 0] asks
          the server to acknowledge the durable journal position every
          that many frames. *)
  | Hello_ok of { fresh : bool; complete : bool; position : int }
      (** [position] is the number of events durably journaled; the
          client must start (or restart) streaming at exactly that event
          index. [complete] means the session already finalized — there
          is nothing left to send. *)
  | Shed of { retry_after_s : float; reason : string }
      (** Admission refused under overload; retry after the hint. *)
  | Err of string
      (** Session-fatal protocol error; the connection closes, the
          session stays resumable. *)
  | Batch of { start : int; chunk : Ormp_trace.Batch.chunk }
      (** Access events [start, start + chunk.len) in SoA lanes. *)
  | Ev of { position : int; event : Ormp_trace.Event.t }
      (** One alloc/free event at an absolute position. *)
  | Finish of { position : int }
      (** End of stream; [position] is the total event count and must
          match the server's. *)
  | Finish_ok of { position : int; collected : int; wild : int }
      (** Profiles are durably written. *)
  | Ack of { position : int }  (** Journal durable through [position]. *)
  | Ping
  | Pong
  | Stats_req
      (** Ask the daemon for a live {!Stats.t} snapshot. Allowed on any
          connection at any time, including before [Hello] — a monitor
          need not own a session. *)
  | Stats of Stats.t
      (** The snapshot: its payload after the tag is {!stats_json}, the
          versioned JSON document [serve --stats-file] writes, and the
          decoder refuses one {!Stats.of_string} refuses. *)

val max_frame : int
(** Upper bound on the payload length field; larger claims are protocol
    errors, so a torn or malicious length prefix cannot make the server
    buffer unboundedly. *)

val stats_json : Stats.t -> string
(** [Stats.to_string] cut to fit a frame: session rows that would take
    the payload past {!max_frame} are dropped and the snapshot flagged
    truncated. *)

val encode : msg -> string
(** The full frame: header, payload and CRC trailer. *)

(** Incremental frame decoder for a byte stream that arrives in
    arbitrary slices. *)
type decoder

val decoder : unit -> decoder

val feed : decoder -> bytes -> int -> int -> unit
(** Append [len] bytes of [buf] starting at [off]. *)

val next : decoder -> (msg option, string) result
(** The next complete frame, [Ok None] when more bytes are needed, or
    [Error reason] on a protocol error (oversized length, CRC mismatch,
    unparseable payload). After an error the decoder must be discarded —
    framing is lost. *)

val buffered : decoder -> int
(** Bytes received but not yet consumed by {!next} — non-zero while a
    frame is partially received, which is what the server's frame
    deadline watches (a slow-loris writer keeps this non-zero without
    ever completing a frame). *)
