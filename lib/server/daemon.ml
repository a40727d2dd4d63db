(* The select-loop daemon — see the mli. Single producer thread: every
   session append happens here, so per-session state needs no locking;
   only the compressor pool runs on other domains, behind the Worker
   drain barrier. *)

module Session = Ormp_session.Session
module Storage = Ormp_session.Storage
module Pipeline = Ormp_session.Pipeline
module Pool = Ormp_trace.Pool
module Log = Ormp_telemetry.Log
module Tm = Ormp_telemetry.Telemetry
module Hb = Ormp_telemetry.Heartbeat
module S = Ormp_util.Sexp

let ( // ) = Filename.concat

let m_sessions = Tm.Metrics.counter "serve.sessions"
let m_frames = Tm.Metrics.counter "serve.frames"
let m_sheds = Tm.Metrics.counter "serve.sheds"
let m_proto_errors = Tm.Metrics.counter "serve.protocol_errors"
let m_stats_requests = Tm.Metrics.counter "serve.stats_requests"
let m_hb_dropped = Tm.Metrics.counter "daemon.heartbeat.dropped"
let m_ack_flush = Tm.Metrics.histogram "serve.ack_flush_ns"

type options = {
  socket : string;
  root : string;
  jobs : int;
  max_sessions : int;
  grammar_budget : int;
  max_occupancy : float;
  idle_timeout_s : float;
  frame_timeout_s : float;
  ping_every_s : float;
  heartbeat_every_s : float;
  retry_after_s : float;
  leap_budget : int option;
  max_streams : int;
  stats : bool;
  stats_file : string option;
}

let default_options ~socket ~root =
  {
    socket;
    root;
    jobs = 1;
    max_sessions = 64;
    grammar_budget = 0;
    max_occupancy = 0.95;
    idle_timeout_s = 30.0;
    frame_timeout_s = 5.0;
    ping_every_s = 5.0;
    heartbeat_every_s = 1.0;
    retry_after_s = 0.05;
    leap_budget = None;
    max_streams = 0;
    stats = true;
    stats_file = None;
  }

type session = {
  token : string;
  workload : string;
  live : Session.t;
  ack_every : int;
  mutable frames_since_ack : int;
  (* Introspection state, all owned by the select loop. *)
  ack_ns : Tm.Metrics.Local.t;  (* ack-flush latency, ns *)
  mutable durable : int;  (* position at the last flush *)
  mutable rate : float;  (* events/s over the last rate window *)
  mutable rate_last_pos : int;
  mutable rate_last_s : float;
  mutable cached_symbols : int;  (* grammar size; refreshed at heartbeat *)
}

let pipe s = Session.pipeline s.live

type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  outq : string Queue.t;
  mutable out_off : int;  (* bytes of the queue head already written *)
  mutable out_bytes : int;  (* total unsent bytes across the queue *)
  mutable sess : session option;
  mutable last_recv : float;
  mutable last_ping : float;
  mutable frame_since : float;  (* start of the current partial frame; 0 = none *)
  mutable closing : bool;  (* close once the out queue drains *)
  mutable close_by : float;  (* give a closing conn this long to drain *)
  mutable dead : bool;
}

type t = {
  opts : options;
  listen_fd : Unix.file_descr;
  pool : Pool.t option;
  sessions : (string, session) Hashtbl.t;  (* attached (conn-bound) only *)
  mutable conns : conn list;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable stopping : bool;
  mutable next_slot : int;
  mutable shed_count : int;
  mutable total_events : int;
  start_s : float;
  mutable hb_last_s : float;
  mutable hb_last_events : int;
  (* Introspection state. *)
  flight : Ormp_telemetry.Flight.t;
  mutable sessions_started : int;
  mutable sessions_resumed : int;
  mutable proto_errors : int;
  mutable deadline_kills : int;
  mutable out_hw : int;  (* high water of total unsent output bytes *)
  mutable flight_dumps : int;
  mutable flight_dumps_suppressed : int;
  mutable hb_dropped : int;
  mutable hb_drop_warned : bool;
  mutable rate : float;  (* daemon-wide events/s over the last window *)
  mutable rate_last_events : int;
  mutable rate_last_s : float;
  mutable stats_last_s : float;  (* last --stats-file export *)
}

let create opts =
  Storage.mkdirs (opts.root // "sessions");
  (* The stats channel reads the telemetry registry; a daemon that
     serves Stats frames must have it recording. *)
  if opts.stats then Tm.enable ();
  let listen_fd = Net_io.listen_unix ~path:opts.socket ~backlog:64 in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock stop_r;
  {
    opts;
    listen_fd;
    pool =
      (if opts.jobs > 1 then Some (Pool.spawn ~name:"serve.pool" ~jobs:opts.jobs ()) else None);
    sessions = Hashtbl.create 64;
    conns = [];
    stop_r;
    stop_w;
    stopping = false;
    next_slot = 0;
    shed_count = 0;
    total_events = 0;
    start_s = Net_io.now ();
    hb_last_s = Net_io.now ();
    hb_last_events = 0;
    flight = Ormp_telemetry.Flight.create ();
    sessions_started = 0;
    sessions_resumed = 0;
    proto_errors = 0;
    deadline_kills = 0;
    out_hw = 0;
    flight_dumps = 0;
    flight_dumps_suppressed = 0;
    hb_dropped = 0;
    hb_drop_warned = false;
    rate = 0.0;
    rate_last_events = 0;
    rate_last_s = Net_io.now ();
    stats_last_s = Net_io.now ();
  }

let stop t = try ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ()

(* --- flight recorder ---------------------------------------------------- *)

module Flight = Ormp_telemetry.Flight

(* A fault storm must not turn the flight directory into its own outage:
   past this many bundles we keep counting but stop writing. *)
let max_flight_dumps = 64

let flight_record t ~kind ~session ~detail = Flight.record t.flight ~kind ~session ~detail

let conn_session c = match c.sess with Some s -> s.token | None -> ""

(* Dump the ring as a post-mortem bundle under root/flight/. Called at
   every fault class the protocol can produce: protocol errors, deadline
   kills, sheds, crash-resumes. *)
let flight_dump t ~kind ~session ~reason =
  flight_record t ~kind ~session ~detail:reason;
  if t.flight_dumps >= max_flight_dumps then
    t.flight_dumps_suppressed <- t.flight_dumps_suppressed + 1
  else begin
    let name =
      Printf.sprintf "%03d-%s-%s" t.flight_dumps kind
        (if session = "" then "daemon" else session)
    in
    let dir = t.opts.root // "flight" // name in
    match Flight.dump t.flight ~dir ~reason with
    | Ok () -> t.flight_dumps <- t.flight_dumps + 1
    | Error e ->
      t.flight_dumps_suppressed <- t.flight_dumps_suppressed + 1;
      Log.warnf ~src:"serve" "flight dump %s failed: %s" name e
  end

(* --- output queue ------------------------------------------------------- *)

(* Unsent output above this bound means the peer has stopped reading
   while we keep producing — the write-side slow-loris. *)
let max_out_bytes = 4 * 1024 * 1024

let total_out_bytes t =
  List.fold_left (fun acc c -> if c.dead then acc else acc + c.out_bytes) 0 t.conns

let send t c msg =
  let s = Wire.encode msg in
  Queue.add s c.outq;
  c.out_bytes <- c.out_bytes + String.length s;
  if c.out_bytes > max_out_bytes && not c.dead then begin
    c.dead <- true;
    t.deadline_kills <- t.deadline_kills + 1;
    flight_dump t ~kind:"backlog-kill" ~session:(conn_session c)
      ~reason:
        (Printf.sprintf "output backlog %d exceeds %d bytes (peer stopped reading)"
           c.out_bytes max_out_bytes)
  end;
  let total = total_out_bytes t in
  if total > t.out_hw then t.out_hw <- total

let flush_out c =
  try
    let progress = ref true in
    while (not (Queue.is_empty c.outq)) && !progress do
      let head = Queue.peek c.outq in
      let len = String.length head - c.out_off in
      let n =
        Net_io.write_nonblock c.fd (Bytes.unsafe_of_string head) c.out_off len
      in
      c.out_bytes <- c.out_bytes - n;
      if n = len then begin
        ignore (Queue.pop c.outq);
        c.out_off <- 0
      end
      else begin
        c.out_off <- c.out_off + n;
        progress := n > 0
      end
    done
  with Unix.Unix_error _ -> c.dead <- true

(* --- session lifecycle -------------------------------------------------- *)

let session_dir t token = t.opts.root // "sessions" // token

let token_ok token =
  token <> ""
  && String.length token <= 128
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       token
  && token.[0] <> '.'

(* Detach a session from its (dying) connection: close it, which leaves
   the journal durable, and forget the in-memory state. The next Hello
   with this token restores it — the same recovery a daemon restart and
   [ormp session resume] perform, so that one path stays exercised. *)
let detach t c =
  match c.sess with
  | None -> ()
  | Some s ->
    c.sess <- None;
    Hashtbl.remove t.sessions s.token;
    flight_record t ~kind:"detach" ~session:s.token
      ~detail:(Printf.sprintf "position %d" (Session.position s.live));
    Session.close s.live

let kill_conn t c =
  c.dead <- true;
  detach t c

let protocol_error ?(kind = "proto-error") t c msg =
  if Tm.on () then Tm.Metrics.incr m_proto_errors;
  t.proto_errors <- t.proto_errors + 1;
  Log.warnf ~src:"serve" "protocol error%s: %s"
    (match c.sess with Some s -> " (session " ^ s.token ^ ")" | None -> "")
    msg;
  flight_dump t ~kind ~session:(conn_session c) ~reason:msg;
  send t c (Wire.Err msg);
  detach t c;
  (* Let the Err frame drain briefly, then close regardless. *)
  c.closing <- true;
  c.close_by <- Net_io.now () +. 1.0

let shed t c ~token reason =
  t.shed_count <- t.shed_count + 1;
  if Tm.on () then Tm.Metrics.incr m_sheds;
  Log.infof ~src:"serve" "shedding session: %s" reason;
  flight_dump t ~kind:"shed" ~session:token ~reason;
  send t c (Wire.Shed { retry_after_s = t.opts.retry_after_s; reason });
  c.closing <- true;
  c.close_by <- Net_io.now () +. 1.0

(* Admission control, cheapest check first. The grammar-budget check
   reads live grammars, which requires the pool drained; admission is
   rare relative to frames, so the barrier is affordable. *)
let admission_refusal t =
  let o = t.opts in
  if o.max_sessions > 0 && Hashtbl.length t.sessions >= o.max_sessions then
    Some (Printf.sprintf "session limit (%d) reached" o.max_sessions)
  else
    match t.pool with
    | Some p when Pool.occupancy p > o.max_occupancy ->
      Some "compressor pool saturated"
    | _ ->
      if o.grammar_budget > 0 then begin
        (match t.pool with Some p -> Pool.drain p | None -> ());
        let total =
          Hashtbl.fold (fun _ s acc -> acc + Pipeline.grammar_symbols (pipe s)) t.sessions 0
        in
        if total > o.grammar_budget then
          Some (Printf.sprintf "grammar budget exceeded (%d > %d symbols)" total o.grammar_budget)
        else None
      end
      else None

let handle_hello t c ~token ~workload ~ack_every =
  if c.sess <> None then protocol_error t c "duplicate Hello on one connection"
  else if not (token_ok token) then protocol_error t c "invalid session token"
  else begin
    let dir = session_dir t token in
    if Sys.file_exists (dir // Session.report_file) then
      (* Finalized earlier; the Finish_ok may have been lost in a crash —
         at-most-once means we must not re-ingest. *)
      send t c (Wire.Hello_ok { fresh = false; complete = true; position = 0 })
    else if Hashtbl.mem t.sessions token then begin
      (* A live connection owns this token. Refuse the newcomer; if the
         old connection is actually dead, its idle timeout frees the
         token and the client's retry gets through. *)
      send t c (Wire.Err "session busy");
      c.closing <- true;
      c.close_by <- Net_io.now () +. 1.0
    end
    else if t.stopping then shed t c ~token "draining for shutdown"
    else
      match admission_refusal t with
      | Some reason -> shed t c ~token reason
      | None -> (
        (* No checkpoints and no watchdog: a daemon session is the journal
           and the pipeline, recovered by full replay. Each session pins
           its grammars from its own pool slot, spreading the load. *)
        let options =
          {
            Session.default_options with
            leap_budget = t.opts.leap_budget;
            max_streams = t.opts.max_streams;
          }
        in
        let pool = Option.map (fun p -> (p, t.next_slot)) t.pool in
        t.next_slot <- t.next_slot + 1;
        let attach live ~fresh =
          (* The position we report must be durable before the client can
             trust it as a resume point. *)
          Session.flush live;
          let position = Session.position live in
          let s =
            {
              token;
              workload;
              live;
              ack_every;
              frames_since_ack = 0;
              ack_ns = Tm.Metrics.Local.create ();
              durable = position;
              rate = 0.0;
              rate_last_pos = position;
              rate_last_s = Net_io.now ();
              cached_symbols = 0;
            }
          in
          Hashtbl.replace t.sessions token s;
          c.sess <- Some s;
          if Tm.on () then Tm.Metrics.incr m_sessions;
          send t c (Wire.Hello_ok { fresh; complete = false; position })
        in
        if not (Sys.file_exists (dir // Session.journal_file)) then begin
          Storage.mkdirs dir;
          Storage.write_atomic ~path:(dir // "manifest")
            (S.to_string (S.field "ormp-serve-session" [ S.field "workload" [ S.atom workload ] ])
            ^ "\n");
          let live = Session.start ?pool ~options ~dir ~workload () in
          t.sessions_started <- t.sessions_started + 1;
          flight_record t ~kind:"hello" ~session:token ~detail:workload;
          attach live ~fresh:true
        end
        else
          match Session.restore ?pool ~options ~dir ~workload () with
          | Error e -> protocol_error t c (Printf.sprintf "session %s unrecoverable: %s" token e)
          | Ok live ->
            let position = Session.position live in
            t.total_events <- t.total_events + position;
            Log.infof ~src:"serve" "resumed session %s at position %d" token position;
            t.sessions_resumed <- t.sessions_resumed + 1;
            (* A resume means the previous attachment ended abnormally
               (crash, kill, torn connection) — exactly when the recent
               event trail is worth keeping. *)
            flight_dump t ~kind:"resume" ~session:token
              ~reason:(Printf.sprintf "resumed at position %d" position);
            attach live ~fresh:false)
  end

(* Apply the new suffix of a frame that claims to start at [start] and
   hold [count] events: [apply ~skip] applies its events from index [skip]
   on. A start beyond our position is a gap (protocol error — the client
   and we disagree about durable history); a start before it is the
   overlap a duplicated retry produces, and the overlap is dropped
   exactly. *)
let ingest t c s ~start ~count ~apply =
  let pos = Session.position s.live in
  if start > pos then begin
    protocol_error t c
      (Printf.sprintf "position gap: frame starts at %d, session is at %d" start pos);
    false
  end
  else begin
    let ok =
      match apply ~skip:(min count (pos - start)) with
      | () -> true
      | exception e ->
        protocol_error t c
          (Printf.sprintf "ingest failed at position %d: %s" (Session.position s.live)
             (Printexc.to_string e));
        false
    in
    t.total_events <- t.total_events + (Session.position s.live - pos);
    ok
  end

let after_frame t c s =
  s.frames_since_ack <- s.frames_since_ack + 1;
  if s.ack_every > 0 && s.frames_since_ack >= s.ack_every then begin
    s.frames_since_ack <- 0;
    (* Ack only durable positions. The flush is the daemon's durability
       wait, so its latency is what a client perceives as ack latency —
       observed per session (for the stats rows) and daemon-wide. *)
    let t0 = Tm.now_ns () in
    Session.flush s.live;
    let dt = Int64.to_float (Int64.sub (Tm.now_ns ()) t0) in
    Tm.Metrics.Local.observe s.ack_ns dt;
    if Tm.on () then Tm.Metrics.observe m_ack_flush dt;
    s.durable <- Session.position s.live;
    send t c (Wire.Ack { position = s.durable })
  end

let handle_finish t c s ~position =
  if position <> Session.position s.live then
    protocol_error t c
      (Printf.sprintf "finish at %d but session is at %d" position (Session.position s.live))
  else begin
    match Session.finish s.live ~elapsed:0.0 with
    | { Session.oc_position = position; oc_collected = collected; oc_wild = wild; _ } ->
      Hashtbl.remove t.sessions s.token;
      c.sess <- None;
      flight_record t ~kind:"finish" ~session:s.token
        ~detail:(Printf.sprintf "position %d" position);
      send t c (Wire.Finish_ok { position; collected; wild })
    | exception e ->
      protocol_error t c (Printf.sprintf "finalize failed: %s" (Printexc.to_string e))
  end

(* --- the stats snapshot -------------------------------------------------- *)

(* Events/s windows update lazily, only when asked and only once the
   window is wide enough to mean something; a poller faster than the
   window just reads the previous figure. *)
let rate_window_s = 0.2

let session_rate (s : session) ~now =
  let dt = now -. s.rate_last_s in
  if dt >= rate_window_s then begin
    let pos = Session.position s.live in
    s.rate <- float_of_int (pos - s.rate_last_pos) /. dt;
    s.rate_last_pos <- pos;
    s.rate_last_s <- now
  end;
  s.rate

let daemon_rate t ~now =
  let dt = now -. t.rate_last_s in
  if dt >= rate_window_s then begin
    t.rate <- float_of_int (t.total_events - t.rate_last_events) /. dt;
    t.rate_last_events <- t.total_events;
    t.rate_last_s <- now
  end;
  t.rate

(* Everything here is a plain read of select-loop-owned state — no pool
   drain, no blocking, so serving Stats cannot stall the data path. The
   one aggregate that would need a drain (grammar symbols) is served
   from the per-session cache the heartbeat refreshes; with the pool
   disabled it is exact. *)
let build_snapshot t =
  let now = Net_io.now () in
  let ms_of_ns ns = ns /. 1e6 in
  let rows, nrows =
    Hashtbl.fold
      (fun _ s (acc, n) ->
        if n >= Wire.max_stats_rows then (acc, n + 1)
        else
          let position = Session.position s.live in
          let p50, p99 =
            match Tm.Metrics.Local.summary s.ack_ns with
            | None -> (0.0, 0.0)
            | Some h -> (ms_of_ns h.Tm.Metrics.p50, ms_of_ns h.Tm.Metrics.p99)
          in
          let row =
            {
              Stats.r_token = s.token;
              (* Workload names come from the client; cap them so no
                 Hello can inflate the Stats frame. *)
              r_workload =
                (if String.length s.workload > 64 then String.sub s.workload 0 64
                 else s.workload);
              r_position = position;
              r_journal_bytes = Session.journal_bytes s.live;
              r_journal_lag = max 0 (position - s.durable);
              r_events_per_sec = session_rate s ~now;
              r_ack_p50_ms = p50;
              r_ack_p99_ms = p99;
              r_ring_occupancy = Pipeline.occupancy (pipe s);
            }
          in
          (row :: acc, n + 1))
      t.sessions ([], 0)
  in
  let sum f = Hashtbl.fold (fun _ s acc -> acc + f s) t.sessions 0 in
  let counters, gauges, hists =
    if Tm.on () then
      let snap = Tm.Metrics.snapshot () in
      ( snap.Tm.Metrics.snap_counters,
        snap.Tm.Metrics.snap_gauges,
        snap.Tm.Metrics.snap_hists )
    else ([], [], [])
  in
  {
    Stats.s_wall_s = now -. t.start_s;
    s_events_per_sec = daemon_rate t ~now;
    s_pool_occupancy =
      (match t.pool with Some p -> Pool.occupancy p | None -> 0.0);
    s_sessions_live = Hashtbl.length t.sessions;
    s_sessions_started = t.sessions_started;
    s_sessions_resumed = t.sessions_resumed;
    s_sheds = t.shed_count;
    s_protocol_errors = t.proto_errors;
    s_deadline_kills = t.deadline_kills;
    s_events_total = t.total_events;
    s_wal_bytes = sum (fun s -> Session.journal_bytes s.live);
    s_out_backlog = total_out_bytes t;
    s_out_backlog_hw = t.out_hw;
    s_grammar_symbols =
      (match t.pool with
      | None -> sum (fun s -> Pipeline.grammar_symbols (pipe s))
      | Some _ -> sum (fun s -> s.cached_symbols));
    s_grammar_budget = t.opts.grammar_budget;
    s_flight_events = Flight.recorded t.flight;
    s_flight_dropped = Flight.dropped t.flight;
    s_flight_dumps = t.flight_dumps;
    s_rows_truncated = nrows > Wire.max_stats_rows;
    s_rows = rows;
    s_counters = counters;
    s_gauges = gauges;
    s_hists = hists;
  }

let handle_msg t c (msg : Wire.msg) =
  if Tm.on () then Tm.Metrics.incr m_frames;
  match msg with
  | Hello { token; workload; ack_every } -> handle_hello t c ~token ~workload ~ack_every
  | Ping -> send t c Wire.Pong
  | Pong -> ()
  | Stats_req ->
    (* Any connection may ask, session or not — a monitor need not own a
       session, and answering costs only select-loop-owned reads. *)
    if Tm.on () then Tm.Metrics.incr m_stats_requests;
    send t c (Wire.Stats (build_snapshot t))
  | Batch { start; chunk } -> (
    match c.sess with
    | None -> protocol_error t c "Batch before Hello"
    | Some s ->
      let count = chunk.Ormp_trace.Batch.len in
      let apply ~skip = Session.append_chunk s.live chunk ~off:skip ~len:(count - skip) in
      if ingest t c s ~start ~count ~apply then after_frame t c s)
  | Ev { position; event } -> (
    match c.sess with
    | None -> protocol_error t c "Ev before Hello"
    | Some s ->
      let apply ~skip = if skip = 0 then Session.append s.live event in
      if ingest t c s ~start:position ~count:1 ~apply then after_frame t c s)
  | Finish { position } -> (
    match c.sess with
    | None -> protocol_error t c "Finish before Hello"
    | Some s -> handle_finish t c s ~position)
  | Hello_ok _ | Shed _ | Err _ | Finish_ok _ | Ack _ | Stats _ ->
    protocol_error t c "unexpected server-side frame from client"

(* --- the event loop ----------------------------------------------------- *)

let read_conn t ~scratch c =
  match Net_io.read_nonblock c.fd scratch with
  | `Again -> ()
  | `Eof -> kill_conn t c
  | `Read n ->
    c.last_recv <- Net_io.now ();
    Wire.feed c.dec scratch 0 n;
    let continue = ref true in
    while !continue && not c.dead && not c.closing do
      match Wire.next c.dec with
      | Ok None -> continue := false
      | Ok (Some msg) -> handle_msg t c msg
      | Error e ->
        protocol_error t c e;
        continue := false
    done;
    c.frame_since <-
      (if Wire.buffered c.dec > 0 then
         if c.frame_since = 0.0 then Net_io.now () else c.frame_since
       else 0.0)

let heartbeat t =
  let now = Net_io.now () in
  (* [grammar_symbols] quiesces each session (draining the pool), so
     refresh here the per-session caches the stats snapshot serves
     between heartbeats, without a drain. *)
  Hashtbl.iter
    (fun _ s -> s.cached_symbols <- Pipeline.grammar_symbols (pipe s))
    t.sessions;
  let sum f = Hashtbl.fold (fun _ s acc -> acc + f s) t.sessions 0 in
  let dt = now -. t.hb_last_s in
  let sample =
    {
      Hb.wall_s = now -. t.start_s;
      position = t.total_events;
      events_per_sec =
        (if dt > 0.0 then float_of_int (t.total_events - t.hb_last_events) /. dt else 0.0);
      live_objects = sum (fun s -> Pipeline.live_objects (pipe s));
      grammar_symbols = sum (fun s -> s.cached_symbols);
      leap_streams = sum (fun s -> Pipeline.leap_streams (pipe s));
      journal_bytes = sum (fun s -> Session.journal_bytes s.live);
      snapshot_bytes = 0;
      last_checkpoint = 0;
      degraded =
        (if t.stopping then [ "draining" ] else [])
        @ (if t.shed_count > 0 then [ "shed" ] else []);
    }
  in
  t.hb_last_s <- now;
  t.hb_last_events <- t.total_events;
  try Hb.append (t.opts.root // "heartbeat") sample
  with Sys_error e ->
    (* A monitoring write must never take the daemon down, but it must
       not vanish either: count every drop, warn once. *)
    t.hb_dropped <- t.hb_dropped + 1;
    if Tm.on () then Tm.Metrics.incr m_hb_dropped;
    flight_record t ~kind:"heartbeat-drop" ~session:"" ~detail:e;
    if not t.hb_drop_warned then begin
      t.hb_drop_warned <- true;
      Log.warnf ~src:"serve" "heartbeat append failed (%s); counting further drops" e
    end

let export_stats_file t ~now =
  match t.opts.stats_file with
  | None -> ()
  | Some path ->
    let every =
      if t.opts.heartbeat_every_s > 0.0 then t.opts.heartbeat_every_s else 1.0
    in
    if now -. t.stats_last_s >= every then begin
      t.stats_last_s <- now;
      let json = Ormp_util.Json.to_string (Stats.to_json (build_snapshot t)) in
      try Storage.write_atomic ~path (json ^ "\n")
      with Sys_error e -> Log.warnf ~src:"serve" "stats export failed: %s" e
    end

let timers t =
  let now = Net_io.now () in
  let o = t.opts in
  List.iter
    (fun c ->
      if not c.dead then begin
        if c.closing then begin
          if Queue.is_empty c.outq || now >= c.close_by then c.dead <- true
        end
        else if c.frame_since > 0.0 && now -. c.frame_since > o.frame_timeout_s then begin
          t.deadline_kills <- t.deadline_kills + 1;
          protocol_error ~kind:"deadline-kill" t c
            "frame deadline exceeded (slow or torn sender)"
        end
        else if now -. c.last_recv > o.idle_timeout_s then begin
          (* Idle sessionless connections (parked monitors) die quietly;
             an idle *session* is a deadline kill worth a post-mortem. *)
          if c.sess <> None then begin
            t.deadline_kills <- t.deadline_kills + 1;
            flight_dump t ~kind:"deadline-kill" ~session:(conn_session c)
              ~reason:
                (Printf.sprintf "idle for %.1fs (timeout %.1fs)" (now -. c.last_recv)
                   o.idle_timeout_s)
          end;
          kill_conn t c
        end
        else if
          now -. c.last_recv > o.ping_every_s && now -. c.last_ping > o.ping_every_s
        then begin
          c.last_ping <- now;
          send t c Wire.Ping
        end
      end)
    t.conns;
  if o.heartbeat_every_s > 0.0 && now -. t.hb_last_s >= o.heartbeat_every_s then heartbeat t;
  export_stats_file t ~now

let reap t =
  let dead, live = List.partition (fun c -> c.dead) t.conns in
  List.iter
    (fun c ->
      detach t c;
      Net_io.close_noerr c.fd)
    dead;
  t.conns <- live

let shutdown t =
  Log.infof ~src:"serve" "draining %d session(s) for shutdown" (Hashtbl.length t.sessions);
  List.iter (fun c -> kill_conn t c) t.conns;
  reap t;
  (match t.pool with Some p -> Pool.stop p | None -> ());
  Net_io.close_noerr t.listen_fd;
  Net_io.close_noerr t.stop_r;
  Net_io.close_noerr t.stop_w;
  (try Unix.unlink t.opts.socket with Unix.Unix_error _ -> ())

let run ?(handle_signals = false) t =
  (* A peer can close at any instant between our select and our write; a
     select-loop server must see that as EPIPE on the one connection, not
     a process-fatal signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if handle_signals then begin
    let request _ = stop t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request)
  end;
  Log.infof ~src:"serve" "listening on %s (root %s, jobs %d)" t.opts.socket t.opts.root
    t.opts.jobs;
  let scratch = Bytes.create 65536 in
  let tick = 0.1 in
  while not t.stopping do
    let readable =
      t.stop_r :: t.listen_fd :: List.map (fun c -> c.fd) (List.filter (fun c -> not c.dead) t.conns)
    in
    let writable =
      List.filter_map
        (fun c -> if (not c.dead) && not (Queue.is_empty c.outq) then Some c.fd else None)
        t.conns
    in
    let r, w = Net_io.wait ~readable ~writable ~timeout_s:tick in
    if List.mem t.stop_r r then t.stopping <- true
    else begin
      if List.mem t.listen_fd r then begin
        let more = ref true in
        while !more do
          match Net_io.accept_nonblock t.listen_fd with
          | None -> more := false
          | Some fd ->
            let now = Net_io.now () in
            t.conns <-
              {
                fd;
                dec = Wire.decoder ();
                outq = Queue.create ();
                out_off = 0;
                out_bytes = 0;
                sess = None;
                last_recv = now;
                last_ping = now;
                frame_since = 0.0;
                closing = false;
                close_by = 0.0;
                dead = false;
              }
              :: t.conns
        done
      end;
      List.iter (fun c -> if (not c.dead) && List.memq c.fd r then read_conn t ~scratch c) t.conns;
      List.iter (fun c -> if (not c.dead) && List.memq c.fd w then flush_out c) t.conns;
      (* Opportunistic flush for freshly queued replies. *)
      List.iter (fun c -> if (not c.dead) && not (Queue.is_empty c.outq) then flush_out c) t.conns;
      timers t;
      reap t
    end
  done;
  shutdown t
