(* The daemon's live introspection snapshot: daemon-wide gauges, one row
   per attached session, and the merged telemetry registry. Built by the
   daemon's select loop from state it already owns (no pool drain, no
   blocking), and encoded once, as JSON: the wire Stats frame carries the
   bytes `serve --stats-file` writes. This module is the shared
   vocabulary between the daemon, the wire and the CLI renderers, so it
   depends on neither Wire nor Daemon. *)

module Metrics = Ormp_telemetry.Metrics
module J = Ormp_util.Json

(* Bump when the snapshot layout changes; [read] refuses a document of
   another version rather than misreading it. *)
let version = 2

type row = {
  r_token : string;
  r_workload : string;
  r_position : int;
  r_journal_bytes : int;
  r_journal_lag : int;  (* ingested events not yet durable in the WAL *)
  r_events_per_sec : float;
  r_ack_p50_ms : float;  (* 0.0 until the first ack flush *)
  r_ack_p99_ms : float;
  r_ring_occupancy : float;  (* worst SPSC ring of the session's slots *)
}

type t = {
  s_wall_s : float;  (* daemon uptime *)
  s_events_per_sec : float;  (* daemon-wide, over the last sample window *)
  s_pool_occupancy : float;
  s_sessions_live : int;
  s_sessions_started : int;
  s_sessions_resumed : int;
  s_sheds : int;
  s_protocol_errors : int;
  s_deadline_kills : int;
  s_events_total : int;
  s_wal_bytes : int;
  s_out_backlog : int;  (* unsent output bytes across live connections *)
  s_out_backlog_hw : int;  (* high water since daemon start *)
  s_live_objects : int;  (* summed over attached sessions *)
  s_leap_streams : int;  (* summed over attached sessions *)
  s_grammar_symbols : int;  (* freshness bounded by heartbeat cadence *)
  s_grammar_budget : int;  (* 0 = unlimited *)
  s_flight_events : int;
  s_flight_dropped : int;
  s_flight_dumps : int;
  s_rows_truncated : bool;  (* true when rows were cut to fit the frame *)
  s_rows : row list;
  s_registry : Metrics.snapshot;
}

(* Fraction of the grammar budget still free; 1.0 when unlimited. *)
let headroom t =
  if t.s_grammar_budget <= 0 then 1.0
  else
    Float.max 0.0
      (1.0 -. (float_of_int t.s_grammar_symbols /. float_of_int t.s_grammar_budget))

(* --- the encoding -------------------------------------------------------- *)

let row_to_json r =
  J.Obj
    [
      ("token", J.String r.r_token);
      ("workload", J.String r.r_workload);
      ("position", J.Int r.r_position);
      ("journal_bytes", J.Int r.r_journal_bytes);
      ("journal_lag", J.Int r.r_journal_lag);
      ("events_per_sec", J.Float r.r_events_per_sec);
      ("ack_p50_ms", J.Float r.r_ack_p50_ms);
      ("ack_p99_ms", J.Float r.r_ack_p99_ms);
      ("ring_occupancy", J.Float r.r_ring_occupancy);
    ]

let to_json t =
  J.Obj
    [
      ("version", J.Int version);
      ( "daemon",
        J.Obj
          [
            ("wall_s", J.Float t.s_wall_s);
            ("events_per_sec", J.Float t.s_events_per_sec);
            ("pool_occupancy", J.Float t.s_pool_occupancy);
            ("sessions_live", J.Int t.s_sessions_live);
            ("sessions_started", J.Int t.s_sessions_started);
            ("sessions_resumed", J.Int t.s_sessions_resumed);
            ("sheds", J.Int t.s_sheds);
            ("protocol_errors", J.Int t.s_protocol_errors);
            ("deadline_kills", J.Int t.s_deadline_kills);
            ("events_total", J.Int t.s_events_total);
            ("wal_bytes", J.Int t.s_wal_bytes);
            ("out_backlog", J.Int t.s_out_backlog);
            ("out_backlog_hw", J.Int t.s_out_backlog_hw);
            ("live_objects", J.Int t.s_live_objects);
            ("leap_streams", J.Int t.s_leap_streams);
            ("grammar_symbols", J.Int t.s_grammar_symbols);
            ("grammar_budget", J.Int t.s_grammar_budget);
            ("grammar_headroom", J.Float (headroom t));
            ("flight_events", J.Int t.s_flight_events);
            ("flight_dropped", J.Int t.s_flight_dropped);
            ("flight_dumps", J.Int t.s_flight_dumps);
          ] );
      ("rows_truncated", J.Bool t.s_rows_truncated);
      ("sessions", J.List (List.map row_to_json t.s_rows));
      ("registry", Metrics.to_json t.s_registry);
    ]

let read_row j =
  let m = J.obj j in
  let r_token = J.field m "token" J.string in
  let r_workload = J.field m "workload" J.string in
  let r_position = J.field m "position" J.int in
  let r_journal_bytes = J.field m "journal_bytes" J.int in
  let r_journal_lag = J.field m "journal_lag" J.int in
  let r_events_per_sec = J.field m "events_per_sec" J.number in
  let r_ack_p50_ms = J.field m "ack_p50_ms" J.number in
  let r_ack_p99_ms = J.field m "ack_p99_ms" J.number in
  let r_ring_occupancy = J.field m "ring_occupancy" J.number in
  J.close m;
  {
    r_token;
    r_workload;
    r_position;
    r_journal_bytes;
    r_journal_lag;
    r_events_per_sec;
    r_ack_p50_ms;
    r_ack_p99_ms;
    r_ring_occupancy;
  }

(* The daemon block, into a snapshot whose rows and registry [read]
   fills in. *)
let read_daemon j =
  let d = J.obj j in
  let int name = J.field d name J.int and number name = J.field d name J.number in
  let s_wall_s = number "wall_s" in
  let s_events_per_sec = number "events_per_sec" in
  let s_pool_occupancy = number "pool_occupancy" in
  let s_sessions_live = int "sessions_live" in
  let s_sessions_started = int "sessions_started" in
  let s_sessions_resumed = int "sessions_resumed" in
  let s_sheds = int "sheds" in
  let s_protocol_errors = int "protocol_errors" in
  let s_deadline_kills = int "deadline_kills" in
  let s_events_total = int "events_total" in
  let s_wal_bytes = int "wal_bytes" in
  let s_out_backlog = int "out_backlog" in
  let s_out_backlog_hw = int "out_backlog_hw" in
  let s_live_objects = int "live_objects" in
  let s_leap_streams = int "leap_streams" in
  let s_grammar_symbols = int "grammar_symbols" in
  let s_grammar_budget = int "grammar_budget" in
  (* Derived from the two above; [to_json] computes it again. *)
  ignore (number "grammar_headroom");
  let s_flight_events = int "flight_events" in
  let s_flight_dropped = int "flight_dropped" in
  let s_flight_dumps = int "flight_dumps" in
  J.close d;
  {
    s_wall_s;
    s_events_per_sec;
    s_pool_occupancy;
    s_sessions_live;
    s_sessions_started;
    s_sessions_resumed;
    s_sheds;
    s_protocol_errors;
    s_deadline_kills;
    s_events_total;
    s_wal_bytes;
    s_out_backlog;
    s_out_backlog_hw;
    s_live_objects;
    s_leap_streams;
    s_grammar_symbols;
    s_grammar_budget;
    s_flight_events;
    s_flight_dropped;
    s_flight_dumps;
    s_rows_truncated = false;
    s_rows = [];
    s_registry = Metrics.empty;
  }

let read j =
  let m = J.obj j in
  let v = J.field m "version" J.int in
  if v <> version then J.fail (Printf.sprintf "unsupported stats version %d (want %d)" v version);
  let t = J.field m "daemon" read_daemon in
  let s_rows_truncated = J.field m "rows_truncated" J.bool in
  let s_rows = J.field m "sessions" (J.list read_row) in
  let s_registry = J.field m "registry" Metrics.read in
  J.close m;
  { t with s_rows_truncated; s_rows; s_registry }

let of_json = J.decode read

(* The document as text, at most [max_bytes] long: when the whole
   snapshot would pass that, the session rows that fit are kept, in
   order, and [rows_truncated] is set. A row's text is independent of
   the others, so the rest is measured once. *)
let to_string ~max_bytes t =
  let text t = J.to_string (to_json t) ^ "\n" in
  let whole = text t in
  if String.length whole <= max_bytes then whole
  else begin
    let cut = { t with s_rows = []; s_rows_truncated = true } in
    (* One comma per row after the first: counting one for every row
       errs on the short side. *)
    let rec fit budget acc = function
      | r :: rest ->
        let n = String.length (J.to_string (row_to_json r)) + 1 in
        if n <= budget then fit (budget - n) (r :: acc) rest else List.rev acc
      | [] -> List.rev acc
    in
    text { cut with s_rows = fit (max_bytes - String.length (text cut)) [] t.s_rows }
  end

let of_string s = Result.bind (J.of_string s) of_json

(* --- rendering ---------------------------------------------------------- *)

let pretty_bytes n =
  let f = float_of_int n in
  if n < 1024 then Printf.sprintf "%dB" n
  else if f < 1024.0 *. 1024.0 then Printf.sprintf "%.1fKiB" (f /. 1024.0)
  else if f < 1024.0 *. 1024.0 *. 1024.0 then
    Printf.sprintf "%.1fMiB" (f /. (1024.0 *. 1024.0))
  else Printf.sprintf "%.1fGiB" (f /. (1024.0 *. 1024.0 *. 1024.0))

let render t =
  let module A = Ormp_util.Ascii in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  out "%s" (A.section "daemon");
  let daemon_rows =
    [
      [ "uptime"; Printf.sprintf "%.1fs" t.s_wall_s ];
      [ "events/s"; Printf.sprintf "%.0f" t.s_events_per_sec ];
      [ "events total"; string_of_int t.s_events_total ];
      [
        "sessions";
        Printf.sprintf "%d live / %d started / %d resumed" t.s_sessions_live
          t.s_sessions_started t.s_sessions_resumed;
      ];
      [
        "faults";
        Printf.sprintf "%d shed / %d proto-err / %d deadline-kill" t.s_sheds
          t.s_protocol_errors t.s_deadline_kills;
      ];
      [ "pool occupancy"; A.percent t.s_pool_occupancy ];
      [ "WAL bytes"; pretty_bytes t.s_wal_bytes ];
      [
        "out backlog";
        Printf.sprintf "%s (hw %s)" (pretty_bytes t.s_out_backlog)
          (pretty_bytes t.s_out_backlog_hw);
      ];
      [
        "live";
        Printf.sprintf "%d objects / %d LEAP streams" t.s_live_objects t.s_leap_streams;
      ];
      [
        "grammar";
        (if t.s_grammar_budget <= 0 then
           Printf.sprintf "%d symbols (no budget)" t.s_grammar_symbols
         else
           Printf.sprintf "%d / %d symbols (headroom %s)" t.s_grammar_symbols
             t.s_grammar_budget
             (A.percent (headroom t)));
      ];
      [
        "flight recorder";
        Printf.sprintf "%d events (%d dropped), %d dumps" t.s_flight_events
          t.s_flight_dropped t.s_flight_dumps;
      ];
    ]
  in
  out "%s" (A.table ~header:[ "gauge"; "value" ] ~rows:daemon_rows);
  out "";
  out "%s" (A.section "sessions");
  if t.s_rows = [] then out "(no attached sessions)"
  else begin
    let rows =
      List.map
        (fun r ->
          [
            r.r_token;
            r.r_workload;
            string_of_int r.r_position;
            Printf.sprintf "%.0f" r.r_events_per_sec;
            Printf.sprintf "%.3f" r.r_ack_p50_ms;
            Printf.sprintf "%.3f" r.r_ack_p99_ms;
            A.percent r.r_ring_occupancy;
            pretty_bytes r.r_journal_bytes;
            string_of_int r.r_journal_lag;
          ])
        t.s_rows
    in
    out "%s"
      (A.table
         ~header:
           [
             "session"; "workload"; "position"; "ev/s"; "ack p50 ms"; "ack p99 ms";
             "ring"; "wal"; "lag";
           ]
         ~rows);
    if t.s_rows_truncated then out "(session rows cut to fit the frame)"
  end;
  if t.s_registry <> Metrics.empty then begin
    out "";
    Buffer.add_string buf (Metrics.render t.s_registry)
  end;
  Buffer.contents buf
