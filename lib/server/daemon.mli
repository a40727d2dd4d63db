(** The `ormp serve` daemon: a single-threaded select loop accepting many
    concurrent profiling sessions over {!Wire} frames on a Unix-domain
    socket. Each session is one {!Ormp_session.Session} under
    [root/sessions/<token>/] whose events arrive off the wire — the same
    journal, pipeline, report and {!Ormp_session.Session.restore} that
    [ormp session] uses, with no checkpoints — so a killed daemon resumes
    any in-flight session byte-identically when its client reconnects.
    All sessions multiplex their grammar maintenance onto one shared
    {!Ormp_trace.Pool} (one worker pool, pinned per grammar).

    Robustness properties (see DESIGN.md §14 for the full ladder):
    - a malformed, torn or out-of-order frame is a {e protocol error}: the
      offending connection gets an [Err] frame and is closed, its session
      is detached (journal flushed — still resumable), and no other
      session or the daemon itself is disturbed;
    - an event the pipeline rejects is journaled before it fails, so that
      session's every later [Hello] gets [Err] from the failed restore —
      it fails closed, alone;
    - per-connection deadlines: an idle connection is pinged and then
      dropped, a partially-received frame older than the frame timeout is
      treated as a slow-loris and dropped, and a connection that will not
      accept writes is dropped once its output backlog passes a bound;
    - bounded admission: past [max_sessions], [grammar_budget] or the
      pool-occupancy threshold, new sessions get a [Shed] frame with a
      retry hint instead of service;
    - SIGTERM/SIGINT (or {!stop}) stops accepting, flushes and closes
      every journal, and exits the loop cleanly.

    Introspection (DESIGN.md §15): any connection may send [Stats_req]
    and gets a {!Stats.t} snapshot built from select-loop-owned state
    (never blocking the data path); a flight recorder keeps a bounded
    ring of recent session events and dumps it as a Chrome trace under
    [root/flight/] on every protocol error, deadline kill, shed and
    crash-resume.

    Each session directory holds the {!Ormp_session.Session} manifest,
    with the options the session runs under and no VM configuration; a
    session restored after a restart runs under those options, whatever
    the new daemon's flags. *)

type options = {
  socket : string;
  root : string;  (** sessions live under [root ^ "/sessions"] *)
  jobs : int;  (** compressor pool size; 1 = inline, no pool *)
  max_sessions : int;  (** concurrent-session admission cap; 0 = unlimited *)
  grammar_budget : int;
      (** total live grammar symbols across sessions above which new
          sessions are shed; 0 = unlimited *)
  max_occupancy : float;
      (** pool-ring occupancy in [0,1] above which new sessions are shed *)
  idle_timeout_s : float;  (** drop a connection silent for this long *)
  frame_timeout_s : float;  (** max age of a partially-received frame *)
  ping_every_s : float;  (** liveness ping cadence on quiet connections *)
  heartbeat_every_s : float;
      (** how often the grammar-symbol cache the Stats snapshot serves is
          refreshed (0 = never) and [stats_file] exported *)
  retry_after_s : float;  (** hint carried by [Shed] frames *)
  leap_budget : int option;  (** new sessions' LEAP LMAD budget *)
  max_streams : int;  (** new sessions' LEAP stream cap; 0 = unlimited *)
  stats : bool;
      (** enable the telemetry registry at {!create} so [Stats_req]
          frames get populated snapshots (default true); disable only
          to measure the observability overhead itself *)
  stats_file : string option;
      (** also export the Stats snapshot here (atomic rename) at
          heartbeat cadence, for scrapers that cannot speak the wire: the
          bytes a [Stats] frame carries after its tag *)
}

val default_options : socket:string -> root:string -> options

type t

val create : options -> t
(** Bind and listen. Raises [Unix.Unix_error] if the socket path is not
    bindable. *)

val run : ?handle_signals:bool -> t -> unit
(** The event loop; blocks until {!stop} (or, with [handle_signals],
    SIGTERM/SIGINT — which also sets SIGPIPE to ignore). Always returns
    having flushed and closed every live journal and joined the pool. *)

val stop : t -> unit
(** Request a graceful drain-then-exit; safe from any thread or domain
    (self-pipe). *)
