(** Live daemon introspection snapshot — the payload of the wire [Stats]
    frame and the substance behind [ormp top] and [serve --stats-file].

    The daemon builds one from state its select loop already owns: cheap
    live reads (positions, WAL bytes, backlog, live objects, LEAP
    streams) are exact, while aggregates that would need a pool drain
    (grammar symbols) are served from caches refreshed at heartbeat
    cadence. Its one encoding is a JSON document ({!to_json}, read back
    by {!of_json}); the wire frame and the stats file carry the same
    bytes ({!to_string}). This module knows nothing of the wire or the
    daemon; it is the shared vocabulary between them and the CLI
    renderers. *)

(** The document's [version] member; {!of_json} refuses other versions. *)
val version : int

(** One attached session. *)
type row = {
  r_token : string;
  r_workload : string;
  r_position : int;
  r_journal_bytes : int;
  r_journal_lag : int;  (** ingested events not yet durable in the WAL *)
  r_events_per_sec : float;
  r_ack_p50_ms : float;  (** 0.0 until the first ack flush *)
  r_ack_p99_ms : float;
  r_ring_occupancy : float;  (** worst SPSC ring across the session's slots *)
}

type t = {
  s_wall_s : float;
  s_events_per_sec : float;
  s_pool_occupancy : float;
  s_sessions_live : int;
  s_sessions_started : int;
  s_sessions_resumed : int;
  s_sheds : int;
  s_protocol_errors : int;
  s_deadline_kills : int;
  s_events_total : int;
  s_wal_bytes : int;
  s_out_backlog : int;
  s_out_backlog_hw : int;
  s_live_objects : int;  (** summed over attached sessions *)
  s_leap_streams : int;  (** summed over attached sessions *)
  s_grammar_symbols : int;
  s_grammar_budget : int;  (** 0 = unlimited *)
  s_flight_events : int;
  s_flight_dropped : int;
  s_flight_dumps : int;
  s_rows_truncated : bool;  (** rows were cut to fit the frame *)
  s_rows : row list;
  s_registry : Ormp_telemetry.Metrics.snapshot;
}

(** Fraction of the grammar budget still free; 1.0 when unlimited. *)
val headroom : t -> float

val to_json : t -> Ormp_util.Json.t
(** The registry block is {!Ormp_telemetry.Metrics.to_json}. Floats
    travel as {!Ormp_util.Json} prints them ([%.6g]). *)

val of_json : Ormp_util.Json.t -> (t, string) result
(** The mirror of {!to_json}: members in its order and no others, and
    the current {!version}. [to_json] of its result renders the same
    text again. *)

val to_string : max_bytes:int -> t -> string
(** The rendered document and a newline, at most [max_bytes] long: when
    the whole snapshot would pass that, only the session rows that fit
    are kept, in order, and [rows_truncated] is set. *)

val of_string : string -> (t, string) result
(** {!Ormp_util.Json.of_string}, then {!of_json}. *)

(** Multi-table human rendering shared by [ormp top] and one-shot dumps. *)
val render : t -> string

(** Human-scale byte formatting ("3.2MiB"). *)
val pretty_bytes : int -> string
