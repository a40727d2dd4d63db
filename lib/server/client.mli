(** The `ormp client` side: generate a workload's event stream once,
    then stream it to a daemon with retry, resume and fault injection —
    and optionally run the identical {!Ormp_session.Pipeline} locally to produce the
    serial reference profiles the daemon's output must match byte for
    byte.

    The whole event stream is materialized up front (the VM is
    deterministic, but holding the array makes resume a trivial index
    skip and lets one generation feed many sessions), so a reconnect
    restarts exactly at the position the server reports durable. *)

type retry = {
  attempts : int;  (** total connection attempts before giving up *)
  backoff_s : float;  (** first backoff; doubles per attempt *)
  backoff_max_s : float;
  jitter : float;  (** +/- fraction applied to each backoff *)
  seed : int;  (** deterministic jitter stream *)
}

val default_retry : retry

type stats = {
  st_events : int;  (** events in the stream (sent + skipped-on-resume) *)
  st_frames : int;  (** data frames actually sent *)
  st_reconnects : int;  (** connections given up on (faults, drops, timeouts) *)
  st_sheds : int;  (** [Shed] responses absorbed *)
  st_acks : int;
  st_ack_latencies : float list;  (** seconds from frame send to its ack *)
  st_wall_s : float;
}

val generate :
  workload:string -> seed:int -> (Ormp_trace.Event.t array * int, string) result
(** Run the workload under the VM with the given config seed and collect
    its full event stream; also returns the stream length. *)

val run_session :
  socket:string ->
  token:string ->
  workload:string ->
  events:Ormp_trace.Event.t array ->
  ?ack_every:int ->
  ?retry:retry ->
  ?net:Ormp_workloads.Faults.Net.t ->
  ?io_timeout_s:float ->
  unit ->
  (stats, string) result
(** Stream [events] as session [token], surviving [Shed] responses,
    injected wire faults, connection drops and daemon restarts by
    reconnecting with exponential backoff + jitter and resuming at the
    server-reported durable position. Returns [Error] only once the
    retry budget is exhausted. *)

val fetch_stats :
  socket:string -> ?io_timeout_s:float -> unit -> (Stats.t, string) result
(** One-shot live snapshot from a running daemon: connect, send
    [Stats_req], wait for the [Stats] reply (answering pings). The
    building block behind [ormp top]; callers poll, so retry policy is
    theirs. Errors are connection/timeout/protocol failures as text. *)

val reference : dir:string -> events:Ormp_trace.Event.t array -> unit
(** Run the serial {!Ormp_session.Pipeline} locally over [events] and write the three
    profile files into [dir] — the byte-comparison baseline for any
    daemon-produced session directory. *)

val percentile : float list -> float -> float
(** [percentile xs 0.99] — nearest-rank percentile; 0 on an empty list. *)
