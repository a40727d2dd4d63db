(* The serve stack, unit-tested in process: wire framing survives
   arbitrary slicing and rejects corruption; a daemon running on its own
   domain serves concurrent sessions whose on-disk profiles are
   byte-identical to the serial reference; injected wire faults, raw
   protocol garbage and position gaps kill exactly one session; shedding
   and daemon restarts are absorbed by the client's retry loop. *)

module Wire = Ormp_server.Wire
module Stats = Ormp_server.Stats
module Net_io = Ormp_server.Net_io
module Daemon = Ormp_server.Daemon
module Client = Ormp_server.Client
module Net_fault = Ormp_workloads.Faults.Net
module Batch = Ormp_trace.Batch
module Event = Ormp_trace.Event
module Spans = Ormp_telemetry.Spans
module J = Ormp_util.Json
module Sexp = Ormp_util.Sexp
module Crc32 = Ormp_util.Crc32

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

open Files

(* One event stream shared by every test; linked_list is small and hits
   alloc, access and free frames. *)
let events =
  match Client.generate ~workload:"linked_list" ~seed:1 with
  | Ok (evs, _) -> evs
  | Error m -> failwith m

let reference_dir =
  lazy
    (let dir = tmpdir () in
     Client.reference ~dir ~events;
     at_exit (fun () -> try rm_rf dir with _ -> ());
     dir)

let check_matches_reference what dir =
  let rw, rr, rl = profile_bytes (Lazy.force reference_dir) in
  let sw, sr, sl = profile_bytes dir in
  check_bool (what ^ ": whomp bytes") true (rw = sw);
  check_bool (what ^ ": rasg bytes") true (rr = sr);
  check_bool (what ^ ": leap bytes") true (rl = sl)

(* --- wire framing ------------------------------------------------------ *)

let sample_chunk () =
  let c =
    {
      Batch.instr = Array.init 7 (fun i -> i * 3);
      addr = Array.init 7 (fun i -> 0x1000 + (i * 8));
      size = Array.make 7 8;
      store = Array.init 7 (fun i -> i land 1);
      len = 5;
    }
  in
  c

let eq_msg a b =
  match (a, b) with
  | Wire.Batch { start = s1; chunk = c1 }, Wire.Batch { start = s2; chunk = c2 } ->
    s1 = s2 && c1.Batch.len = c2.Batch.len
    && Array.for_all Fun.id
         (Array.init c1.Batch.len (fun i ->
              c1.Batch.instr.(i) = c2.Batch.instr.(i)
              && c1.Batch.addr.(i) = c2.Batch.addr.(i)
              && c1.Batch.size.(i) = c2.Batch.size.(i)
              && c1.Batch.store.(i) = c2.Batch.store.(i)))
  | a, b -> a = b

let roundtrip_msgs () =
  [
    Wire.Hello { token = "tok-1"; workload = "linked_list"; ack_every = 4 };
    Wire.Hello_ok { fresh = true; complete = false; position = 0 };
    Wire.Hello_ok { fresh = false; complete = true; position = 6240 };
    (* 2.5 has high exponent bits: a regression guard for float transport *)
    Wire.Shed { retry_after_s = 2.5; reason = "draining for shutdown" };
    Wire.Err "position gap";
    Wire.Batch { start = 12345; chunk = sample_chunk () };
    Wire.Ev
      { position = 7; event = Event.Alloc { site = 3; addr = 0x2000; size = 64; type_name = None } };
    Wire.Ev { position = 9; event = Event.Free { addr = 0x2000; site = Some 4 } };
    Wire.Finish { position = 6240 };
    Wire.Finish_ok { position = 6240; collected = 6000; wild = 0 };
    Wire.Ack { position = 512 };
    Wire.Ping;
    Wire.Pong;
  ]

(* Feed the encoded stream in [slice]-byte pieces; every message must
   come back out, regardless of where the frame boundaries fall. *)
let decode_sliced slice encoded =
  let dec = Wire.decoder () in
  let out = ref [] in
  let buf = Bytes.of_string encoded in
  let n = Bytes.length buf in
  let drain () =
    let continue = ref true in
    while !continue do
      match Wire.next dec with
      | Ok (Some m) -> out := m :: !out
      | Ok None -> continue := false
      | Error e -> failwith ("decode error: " ^ e)
    done
  in
  let i = ref 0 in
  while !i < n do
    let k = min slice (n - !i) in
    Wire.feed dec buf !i k;
    drain ();
    i := !i + k
  done;
  List.rev !out

(* The data frames a client sends for a stream: a Batch per run of
   accesses (at most the default capacity each), an Ev per alloc/free. *)
let client_frames events =
  let out = ref [] and next = ref 0 in
  let b =
    Batch.create
      ~on_chunk:(fun c ->
        let lane a = Array.sub a 0 c.Batch.len in
        let chunk =
          {
            Batch.instr = lane c.Batch.instr;
            addr = lane c.Batch.addr;
            size = lane c.Batch.size;
            store = lane c.Batch.store;
            len = c.Batch.len;
          }
        in
        out := Wire.Batch { start = !next; chunk } :: !out;
        next := !next + c.Batch.len)
      ~on_event:(fun event ->
        out := Wire.Ev { position = !next; event } :: !out;
        incr next)
      ()
  in
  Array.iter (Batch.event b) events;
  Batch.flush b;
  List.rev !out

(* The serve-churn stream: 52k events, alloc/free every few accesses. *)
let churn_frames =
  lazy
    (let events =
       let buf = Ormp_util.Vec.create () in
       ignore
         (Ormp_vm.Runner.run
            (Ormp_workloads.Micro.churn ~live:64 ~ops:20000 ())
            (Ormp_util.Vec.push buf));
       Ormp_util.Vec.to_array buf
     in
     client_frames events)

let test_wire_roundtrip () =
  let check_sliced what msgs slices =
    let encoded = String.concat "" (List.map Wire.encode msgs) in
    List.iter
      (fun slice ->
        let got = decode_sliced slice encoded in
        check_int (Printf.sprintf "%s: count at slice %d" what slice) (List.length msgs)
          (List.length got);
        List.iter2
          (fun want have ->
            check_bool (Printf.sprintf "%s: msg equal at slice %d" what slice) true
              (eq_msg want have))
          msgs got)
      slices
  in
  let msgs = roundtrip_msgs () in
  check_sliced "control" msgs
    [ 1; 2; 3; 7; 64; String.length (String.concat "" (List.map Wire.encode msgs)) ];
  (* A churn-sized stream, Evs included, in the daemon's 64 KiB reads:
     each read holds hundreds of frames. *)
  let churn = Lazy.force churn_frames in
  check_bool "churn stream has >= 2000 frames" true (List.length churn >= 2000);
  check_bool "churn stream has Ev frames" true
    (List.exists (function Wire.Ev _ -> true | _ -> false) churn);
  check_sliced "churn" churn [ 65536 ]

let test_wire_crc_rejects_corruption () =
  let s = Wire.encode (Wire.Hello { token = "t"; workload = "w"; ack_every = 1 }) in
  (* flip one payload byte; the CRC trailer no longer matches *)
  let b = Bytes.of_string s in
  Bytes.set b 6 (Char.chr (Char.code (Bytes.get b 6) lxor 0xff));
  let dec = Wire.decoder () in
  Wire.feed dec b 0 (Bytes.length b);
  (match Wire.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted frame was accepted");
  (* an insane length prefix is rejected before any buffering happens *)
  let dec2 = Wire.decoder () in
  let huge = Bytes.make 4 '\xff' in
  Wire.feed dec2 huge 0 4;
  match Wire.next dec2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized length prefix accepted"

(* A frame whose CRC fails in the middle of one feed: every frame before
   it decodes, and the error comes at exactly that frame. *)
let test_wire_crc_error_at_its_frame () =
  let msgs = List.filteri (fun i _ -> i < 60) (Lazy.force churn_frames) in
  let frames = List.map Wire.encode msgs in
  let bad = 37 in
  let offset = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < bad) (List.map String.length frames)) in
  let b = Bytes.of_string (String.concat "" frames) in
  (* the last payload byte of frame [bad] *)
  let at = offset + String.length (List.nth frames bad) - 5 in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x5a));
  let dec = Wire.decoder () in
  Wire.feed dec b 0 (Bytes.length b);
  List.iteri
    (fun i want ->
      if i < bad then
        match Wire.next dec with
        | Ok (Some have) -> check_bool (Printf.sprintf "frame %d intact" i) true (eq_msg want have)
        | Ok None -> Alcotest.failf "frame %d: decoder wants more bytes" i
        | Error e -> Alcotest.failf "frame %d: early error %s" i e)
    msgs;
  match Wire.next dec with
  | Error e -> check_string "the corrupt frame fails its CRC" "frame CRC mismatch" e
  | Ok _ -> Alcotest.failf "frame %d: corruption was accepted" bad

let test_wire_partial_frame_buffers () =
  let s = Wire.encode Wire.Ping in
  let dec = Wire.decoder () in
  Wire.feed dec (Bytes.of_string s) 0 (String.length s - 1);
  (match Wire.next dec with
  | Ok None -> ()
  | _ -> Alcotest.fail "partial frame should need more bytes");
  check_bool "partial frame is visibly buffered" true (Wire.buffered dec > 0);
  Wire.feed dec (Bytes.of_string s) (String.length s - 1) 1;
  (match Wire.next dec with
  | Ok (Some Wire.Ping) -> ()
  | _ -> Alcotest.fail "completed frame should decode");
  check_int "drained" 0 (Wire.buffered dec)

(* --- stats frame codec --------------------------------------------------- *)

let hist_summary count sum mn mx q =
  {
    Ormp_telemetry.Metrics.count;
    sum;
    min = mn;
    max = mx;
    p50 = q;
    p90 = q *. 2.0;
    p99 = q *. 3.0;
  }

let sample_stats () =
  {
    Stats.s_wall_s = 12.5;
    s_events_per_sec = 125000.0;
    s_pool_occupancy = 0.25;
    s_sessions_live = 1;
    s_sessions_started = 3;
    s_sessions_resumed = 1;
    s_sheds = 2;
    s_protocol_errors = 1;
    s_deadline_kills = 0;
    s_events_total = 6240;
    s_wal_bytes = 73000;
    s_out_backlog = 0;
    s_out_backlog_hw = 4096;
    s_live_objects = 96;
    s_leap_streams = 7;
    s_grammar_symbols = 512;
    s_grammar_budget = 0;
    s_flight_events = 9;
    s_flight_dropped = 0;
    s_flight_dumps = 2;
    s_rows_truncated = false;
    s_rows =
      [
        {
          Stats.r_token = "tok-1";
          r_workload = "linked_list";
          r_position = 6240;
          r_journal_bytes = 73000;
          r_journal_lag = 0;
          r_events_per_sec = 125000.0;
          r_ack_p50_ms = 2.5;
          r_ack_p99_ms = 9.75;
          r_ring_occupancy = 0.125;
        };
      ];
    s_registry =
      {
        Ormp_telemetry.Metrics.snap_counters = [ ("serve.stats_requests", 4) ];
        snap_gauges = [ ("pool.occupancy", 0.25) ];
        snap_hists = [ ("serve.ack_flush_ns", hist_summary 4 1500.0 100.0 800.0 300.0) ];
      };
  }

let decode_one s =
  let dec = Wire.decoder () in
  Wire.feed dec (Bytes.of_string s) 0 (String.length s);
  Wire.next dec

(* A frame's payload after its tag. *)
let payload_of frame = String.sub frame 5 (String.length frame - 9)

let gen_stats =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  let fin = oneof [ float_bound_inclusive 1.0e9; float; oneofl [ 0.0; 3.0; Float.nan ] ] in
  let nat = oneof [ int_bound 1_000_000; int ] in
  let row =
    pair (pair str str) (pair (triple nat nat nat) (quad fin fin fin fin))
    >|= fun ( (r_token, r_workload),
              ( (r_position, r_journal_bytes, r_journal_lag),
                (r_events_per_sec, r_ack_p50_ms, r_ack_p99_ms, r_ring_occupancy) ) ) ->
    {
      Stats.r_token;
      r_workload;
      r_position;
      r_journal_bytes;
      r_journal_lag;
      r_events_per_sec;
      r_ack_p50_ms;
      r_ack_p99_ms;
      r_ring_occupancy;
    }
  in
  let hist = pair nat (quad fin fin fin fin) >|= fun (count, (sum, mn, mx, q)) -> hist_summary count sum mn mx q in
  pair
    (pair (list_size (int_bound 5) row) (triple nat nat nat))
    (pair
       (pair (list_size (int_bound 4) (pair str nat)) (list_size (int_bound 4) (pair str fin)))
       (pair (list_size (int_bound 3) (pair str hist)) (triple fin fin (pair fin bool))))
  >|= fun ( (s_rows, (a, b, c)),
            ( (snap_counters, snap_gauges),
              (snap_hists, (s_wall_s, s_events_per_sec, (s_pool_occupancy, s_rows_truncated))) ) ) ->
  {
    Stats.s_wall_s;
    s_events_per_sec;
    s_pool_occupancy;
    s_sessions_live = List.length s_rows;
    s_sessions_started = a;
    s_sessions_resumed = b;
    s_sheds = c;
    s_protocol_errors = a land 15;
    s_deadline_kills = b land 15;
    s_events_total = a + b;
    s_wal_bytes = c;
    s_out_backlog = a land 1023;
    s_out_backlog_hw = a;
    s_live_objects = b land 4095;
    s_leap_streams = c land 255;
    s_grammar_symbols = b;
    s_grammar_budget = c;
    s_flight_events = a land 255;
    s_flight_dropped = b land 255;
    s_flight_dumps = c land 63;
    s_rows_truncated;
    s_rows;
    s_registry = { Ormp_telemetry.Metrics.snap_counters; snap_gauges; snap_hists };
  }

(* One encoding: the text [Stats.of_string] reads renders again byte for
   byte (floats travel as %.6g, so this sidesteps float equality), and a
   frame carries that text after its tag and decodes to a snapshot that
   re-encodes to the same frame. *)
let prop_stats_roundtrip =
  QCheck.Test.make ~name:"stats frames re-encode byte-identically" ~count:200
    (QCheck.make gen_stats) (fun s ->
      let text = Wire.stats_json s in
      let frame = Wire.encode (Wire.Stats s) in
      (match Stats.of_string text with
      | Ok s' -> Ormp_util.Json.to_string (Stats.to_json s') ^ "\n" = text
      | Error e -> QCheck.Test.fail_report e)
      && payload_of frame = text
      &&
      match decode_one frame with
      | Ok (Some (Wire.Stats s')) -> Wire.encode (Wire.Stats s') = frame
      | _ -> false)

(* Re-seal a frame whose payload was edited, so only the payload check
   can object. *)
let frame_of_payload p =
  let n = String.length p in
  let b = Bytes.create (n + 8) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string p 0 b 4 n;
  Bytes.set_int32_be b (n + 4) (Int32.of_int (Crc32.string p));
  Bytes.to_string b

let replace_first s ~sub ~by =
  let n = String.length sub in
  let rec find i = if String.sub s i n = sub then i else find (i + 1) in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let test_stats_version_rejected () =
  let text = Wire.stats_json (sample_stats ()) in
  let other = replace_first text ~sub:(Printf.sprintf {|"version":%d|} Stats.version) ~by:{|"version":99|} in
  check_bool "another version is refused" true (Result.is_error (Stats.of_string other));
  match decode_one (frame_of_payload ("U" ^ other)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown stats version was accepted"

let test_stats_corruption_rejected () =
  let s = Wire.encode (Wire.Stats (sample_stats ())) in
  (* one flipped payload byte: the CRC trailer no longer matches *)
  let b = Bytes.of_string s in
  Bytes.set b 20 (Char.chr (Char.code (Bytes.get b 20) lxor 0x55));
  (match decode_one (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt stats frame was accepted");
  (* truncation is not corruption: the decoder just waits for the rest *)
  let dec = Wire.decoder () in
  Wire.feed dec (Bytes.of_string s) 0 (String.length s - 5);
  (match Wire.next dec with
  | Ok None -> ()
  | _ -> Alcotest.fail "truncated stats frame should buffer, not decode");
  (* CRC-valid frames whose JSON is not what [Stats.to_json] writes: a
     missing, mistyped or unknown member, a number JSON cannot spell,
     trailing bytes, a cut document, hostile nesting *)
  let text = Wire.stats_json (sample_stats ()) in
  List.iter
    (fun (name, bad) ->
      check_bool (name ^ ": Stats.of_string refuses") true (Result.is_error (Stats.of_string bad));
      match decode_one (frame_of_payload ("U" ^ bad)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: the frame was accepted" name)
    [
      ("missing member", replace_first text ~sub:{|"sheds":2,|} ~by:"");
      ("mistyped member", replace_first text ~sub:{|"sheds":2|} ~by:{|"sheds":"2"|});
      ("integer as float", replace_first text ~sub:{|"sheds":2|} ~by:{|"sheds":2.5|});
      ("unknown member", replace_first text ~sub:{|"sheds":2|} ~by:{|"sheds":2,"extra":1|});
      ("reordered members", replace_first text ~sub:{|"sheds":2,"protocol_errors":1|}
          ~by:{|"protocol_errors":1,"sheds":2|});
      ("leading zero", replace_first text ~sub:{|"wall_s":12.5|} ~by:{|"wall_s":02.5|});
      ("bare point", replace_first text ~sub:{|"events_per_sec":125000|} ~by:{|"events_per_sec":.25000|});
      ("trailing bytes", text ^ "x");
      ("cut document", String.sub text 0 (String.length text / 2));
      ("1 MiB of [", String.make ((1 lsl 20) - 1) '[');
    ]

(* The rows a frame can carry are bounded by the frame, not by a count:
   2,048 rows of the longest tokens and of workload names made of
   control characters (each escaped as six bytes) do not fit, so rows
   are cut in order and the snapshot says so; the registry and the
   daemon block survive whole. *)
let test_stats_rows_cut_to_fit () =
  let row i =
    {
      Stats.r_token = Printf.sprintf "%0128d" i;
      r_workload = String.init 64 (fun j -> Char.chr ((i + j) land 0x1f));
      r_position = max_int - i;
      r_journal_bytes = max_int;
      r_journal_lag = max_int;
      r_events_per_sec = 1.23456789e300;
      r_ack_p50_ms = -1.5e-300;
      r_ack_p99_ms = Float.nan;
      r_ring_occupancy = 0.999999;
    }
  in
  let s = { (sample_stats ()) with Stats.s_rows = List.init 2048 row } in
  let frame = Wire.encode (Wire.Stats s) in
  check_bool "frame under max_frame" true (String.length frame - 8 <= Wire.max_frame);
  match decode_one frame with
  | Ok (Some (Wire.Stats s')) ->
    let kept = List.length s'.Stats.s_rows in
    check_bool (Printf.sprintf "rows cut (%d of 2048 kept)" kept) true (kept > 0 && kept < 2048);
    check_bool "rows_truncated says so" true s'.Stats.s_rows_truncated;
    Alcotest.(check (list string)) "the first rows, in order"
      (List.init kept (fun i -> (row i).Stats.r_token))
      (List.map (fun r -> r.Stats.r_token) s'.Stats.s_rows);
    Alcotest.(check (list string)) "control characters survive"
      (List.init kept (fun i -> (row i).Stats.r_workload))
      (List.map (fun r -> r.Stats.r_workload) s'.Stats.s_rows);
    check_bool "registry whole" true (s'.Stats.s_registry = s.Stats.s_registry);
    (* a snapshot that fits keeps every row and stays unflagged *)
    let small = { s with Stats.s_rows = List.init 16 row } in
    (match decode_one (Wire.encode (Wire.Stats small)) with
    | Ok (Some (Wire.Stats s')) ->
      check_int "all rows kept" 16 (List.length s'.Stats.s_rows);
      check_bool "not flagged" false s'.Stats.s_rows_truncated
    | _ -> Alcotest.fail "a small snapshot did not decode")
  | Ok _ -> Alcotest.fail "not a Stats frame"
  | Error e -> Alcotest.failf "cut frame does not decode: %s" e

(* --- in-process daemon harness ----------------------------------------- *)

type harness = {
  root : string;
  socket : string;
  mutable daemon : (Daemon.t * unit Domain.t) option;
}

let start_daemon ?(jobs = 1) ?(max_sessions = 64) ?(max_streams = 0) ?stats_file h =
  assert (h.daemon = None);
  let opts =
    {
      (Daemon.default_options ~socket:h.socket ~root:h.root) with
      Daemon.jobs;
      max_sessions;
      max_streams;
      stats_file;
      idle_timeout_s = 10.0;
      frame_timeout_s = 2.0;
      ping_every_s = 2.0;
      heartbeat_every_s = 0.2;
      retry_after_s = 0.01;
    }
  in
  (* create binds the socket synchronously: once this returns, clients
     cannot race the listener *)
  let t = Daemon.create opts in
  h.daemon <- Some (t, Domain.spawn (fun () -> Daemon.run t))

let stop_daemon h =
  match h.daemon with
  | None -> ()
  | Some (t, d) ->
    Daemon.stop t;
    Domain.join d;
    h.daemon <- None

let with_harness ?jobs ?max_sessions ?stats_file f =
  let root = tmpdir () in
  let h = { root; socket = Filename.concat root "ormp.sock"; daemon = None } in
  start_daemon ?jobs ?max_sessions ?stats_file:(Option.map (Filename.concat root) stats_file) h;
  Fun.protect
    ~finally:(fun () ->
      stop_daemon h;
      try rm_rf root with _ -> ())
    (fun () -> f h)

let session_dir h token = Filename.concat h.root (Filename.concat "sessions" token)

let run ?(ack_every = 4) ?net ?(attempts = 20) h token =
  Client.run_session ~socket:h.socket ~token ~workload:"linked_list" ~events ~ack_every
    ~retry:{ Client.default_retry with Client.attempts; backoff_s = 0.005; backoff_max_s = 0.05 }
    ?net ~io_timeout_s:5.0 ()

let ok_stats what = function
  | Ok (st : Client.stats) -> st
  | Error m -> Alcotest.failf "%s: %s" what m

(* --- clean path, serial and pooled ------------------------------------- *)

let test_clean_session_byte_identical () =
  with_harness (fun h ->
      let st = ok_stats "clean" (run h "clean") in
      check_int "no reconnects" 0 st.Client.st_reconnects;
      check_bool "acks arrived" true (st.Client.st_acks > 0);
      check_matches_reference "clean" (session_dir h "clean");
      (* a second run of a finalized token is answered as complete
         without re-streaming a single frame *)
      let st2 = ok_stats "replayed token" (run h "clean") in
      check_int "nothing re-sent" 0 st2.Client.st_frames)

let test_pooled_daemon_byte_identical () =
  with_harness ~jobs:4 (fun h ->
      ignore (ok_stats "pooled" (run h "pooled"));
      check_matches_reference "pooled" (session_dir h "pooled"))

(* --- fault isolation: the heart of the PR ------------------------------- *)

(* Session A suffers a torn frame mid-stream while session B streams
   concurrently: A must recover through retry, B must never notice. *)
let test_torn_frame_isolated_from_neighbor () =
  with_harness (fun h ->
      let a =
        Domain.spawn (fun () ->
            run h "torn-a"
              ~net:
                (Net_fault.create
                   { Net_fault.none with Net_fault.torn_frame = Some 10; dup_retry = Some 700 }))
      in
      let b = run h "quiet-b" in
      let sa = ok_stats "faulted session" (Domain.join a) in
      let sb = ok_stats "neighbor session" b in
      check_bool "fault forced a reconnect" true (sa.Client.st_reconnects >= 1);
      check_int "neighbor saw no reconnects" 0 sb.Client.st_reconnects;
      check_matches_reference "faulted session" (session_dir h "torn-a");
      check_matches_reference "neighbor session" (session_dir h "quiet-b"))

let test_every_fault_class_recovers () =
  with_harness (fun h ->
      List.iter
        (fun (token, plan) ->
          let st = ok_stats token (run h token ~net:(Net_fault.create plan)) in
          check_bool (token ^ " reconnected") true
            (st.Client.st_reconnects >= 1 || plan.Net_fault.slow_frame <> None);
          check_matches_reference token (session_dir h token))
        [
          ("f-torn", { Net_fault.none with Net_fault.torn_frame = Some 7 });
          ("f-drop", { Net_fault.none with Net_fault.disconnect_before = Some 13 });
          ("f-slow", { Net_fault.none with Net_fault.slow_frame = Some 3 });
          ( "f-dup",
            {
              Net_fault.none with
              Net_fault.disconnect_before = Some 20;
              dup_retry = Some 300;
            } );
        ])

(* Raw protocol garbage on one connection must not disturb a concurrent
   well-behaved session. *)
let test_garbage_connection_isolated () =
  with_harness (fun h ->
      let deadline_s = Net_io.now () +. 5.0 in
      (* raw garbage, and a CRC-valid Stats frame of 1 MiB of [ (a
         client's Stats frame is a protocol error however it parses) *)
      let fds =
        List.map
          (fun bytes ->
            let fd = Net_io.connect_unix ~path:h.socket ~deadline_s in
            Net_io.send_all fd bytes ~deadline_s;
            fd)
          [
            "\x00\x00\x00\x08not-ormp\xde\xad\xbe\xef";
            frame_of_payload ("U" ^ String.make (Wire.max_frame - 1) '[');
          ]
      in
      let b = run h "beside-garbage" in
      (* the daemon answers Err and closes us; drain to EOF *)
      let buf = Bytes.create 4096 in
      List.iter
        (fun fd ->
          (try
             while Net_io.recv_into fd buf ~deadline_s > 0 do
               ()
             done
           with Net_io.Timeout -> Alcotest.fail "garbage connection was not closed");
          Net_io.close_noerr fd)
        fds;
      let sb = ok_stats "neighbor of garbage" b in
      check_int "neighbor saw no reconnects" 0 sb.Client.st_reconnects;
      check_matches_reference "neighbor of garbage" (session_dir h "beside-garbage"))

(* --- raw-wire protocol errors ------------------------------------------ *)

let recv_msg fd dec ~deadline_s =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Wire.next dec with
    | Error e -> Alcotest.failf "client-side decode error: %s" e
    | Ok (Some m) -> m
    | Ok None ->
      let n = Net_io.recv_into fd buf ~deadline_s in
      if n = 0 then Alcotest.fail "connection closed while awaiting a frame";
      Wire.feed dec buf 0 n;
      go ()
  in
  go ()

let test_position_gap_is_protocol_error () =
  with_harness (fun h ->
      let deadline_s = Net_io.now () +. 5.0 in
      let fd = Net_io.connect_unix ~path:h.socket ~deadline_s in
      let dec = Wire.decoder () in
      let send m = Net_io.send_all fd (Wire.encode m) ~deadline_s in
      send (Wire.Hello { token = "gappy"; workload = "linked_list"; ack_every = 0 });
      (match recv_msg fd dec ~deadline_s with
      | Wire.Hello_ok { fresh = true; position = 0; _ } -> ()
      | _ -> Alcotest.fail "expected a fresh Hello_ok");
      (* claim to start at event 500 of a session that has seen nothing *)
      send (Wire.Batch { start = 500; chunk = sample_chunk () });
      (match recv_msg fd dec ~deadline_s with
      | Wire.Err e ->
        check_bool "error names the gap" true
          (String.length e >= 3 && String.lowercase_ascii e |> fun s ->
           let rec has i =
             i + 3 <= String.length s && (String.sub s i 3 = "gap" || has (i + 1))
           in
           has 0)
      | m -> Alcotest.failf "expected Err, got %s" (match m with Wire.Ack _ -> "ack" | _ -> "other"));
      Net_io.close_noerr fd;
      (* the gap killed the connection, not the session: it resumes *)
      let st = ok_stats "resumed after gap" (run h "gappy") in
      check_int "fresh stream, no reconnects" 0 st.Client.st_reconnects;
      check_matches_reference "resumed after gap" (session_dir h "gappy"))

(* An event the pipeline rejects (an Alloc overlapping a live object) is
   journaled before it fails. Every later Hello for that session must get
   Err from the recovery path, and nothing else: the daemon keeps serving
   and a fresh session beside it finishes byte-identical. *)
let test_poisoned_journal_fails_one_session () =
  with_harness (fun h ->
      let alloc = Event.Alloc { site = 1; addr = 4096; size = 64; type_name = None } in
      let access = Event.Access { instr = 2; addr = 4096; size = 8; is_store = false } in
      (match
         Client.run_session ~socket:h.socket ~token:"poisoned" ~workload:"overlap"
           ~events:[| alloc; access; alloc; access |]
           ~retry:{ Client.default_retry with Client.attempts = 3; backoff_s = 0.005 }
           ~io_timeout_s:5.0 ()
       with
      | Ok _ -> Alcotest.fail "a session with an overlapping alloc finished"
      | Error _ -> ());
      ignore (ok_stats "after the poisoned session" (run h "after-poison"));
      check_matches_reference "after the poisoned session" (session_dir h "after-poison"))

let test_duplicate_token_refused_while_attached () =
  with_harness (fun h ->
      let deadline_s = Net_io.now () +. 5.0 in
      let fd = Net_io.connect_unix ~path:h.socket ~deadline_s in
      let dec = Wire.decoder () in
      Net_io.send_all fd
        (Wire.encode (Wire.Hello { token = "held"; workload = "linked_list"; ack_every = 0 }))
        ~deadline_s;
      (match recv_msg fd dec ~deadline_s with
      | Wire.Hello_ok _ -> ()
      | _ -> Alcotest.fail "expected Hello_ok");
      let fd2 = Net_io.connect_unix ~path:h.socket ~deadline_s in
      let dec2 = Wire.decoder () in
      Net_io.send_all fd2
        (Wire.encode (Wire.Hello { token = "held"; workload = "linked_list"; ack_every = 0 }))
        ~deadline_s;
      (match recv_msg fd2 dec2 ~deadline_s with
      | Wire.Err _ -> ()
      | _ -> Alcotest.fail "second claim on an attached token must be refused");
      Net_io.close_noerr fd2;
      Net_io.close_noerr fd)

(* An Ev whose line is not exactly the rendering of the event it parses
   to could not be journaled and replayed as sent: a type name holding a
   newline would split into two journal lines and make the session
   unrecoverable; an empty name and trailing blanks read back as another
   event. Each such frame is a protocol error raised before anything is
   journaled, and the daemon keeps serving. ("-" is the wire spelling of
   an untyped alloc, so a name of "-" arrives as one; the check below
   pins that.) *)
let test_noncanonical_event_is_a_protocol_error () =
  with_harness (fun h ->
      let deadline_s = Net_io.now () +. 5.0 in
      let attach () =
        let fd = Net_io.connect_unix ~path:h.socket ~deadline_s in
        let dec = Wire.decoder () in
        Net_io.send_all fd
          (Wire.encode (Wire.Hello { token = "named"; workload = "linked_list"; ack_every = 1 }))
          ~deadline_s;
        match recv_msg fd dec ~deadline_s with
        | Wire.Hello_ok { position; _ } -> (fd, dec, position)
        | _ -> Alcotest.fail "expected Hello_ok"
      in
      let alloc name = Event.Alloc { site = 1; addr = 4096; size = 64; type_name = Some name } in
      List.iter
        (fun name ->
          let fd, dec, position = attach () in
          check_int (Printf.sprintf "%S: session still at 0" name) 0 position;
          Net_io.send_all fd (Wire.encode (Wire.Ev { position; event = alloc name })) ~deadline_s;
          (match recv_msg fd dec ~deadline_s with
          | Wire.Err _ -> ()
          | _ -> Alcotest.failf "type name %S was accepted" name);
          Net_io.close_noerr fd)
        [ "a\nb"; "\n"; ""; "x "; "x\t"; "tail\r" ];
      let fd, _, position = attach () in
      check_int "nothing was applied" 0 position;
      Net_io.close_noerr fd;
      check_string "nothing was journaled"
        (Ormp_trace.Trace_file.header ^ "\n")
        (read_file (Filename.concat (session_dir h "named") "journal.trace"));
      (match decode_one (Wire.encode (Wire.Ev { position = 3; event = alloc "-" })) with
      | Ok (Some (Wire.Ev { event = Event.Alloc { type_name = None; _ }; _ })) -> ()
      | _ -> Alcotest.fail "a \"-\" name should decode as an untyped alloc");
      ignore (ok_stats "beside the rejected frames" (run h "beside-named"));
      check_matches_reference "beside the rejected frames" (session_dir h "beside-named"))

(* --- shedding ----------------------------------------------------------- *)

let test_shed_past_max_sessions () =
  with_harness ~max_sessions:1 (fun h ->
      let deadline_s = Net_io.now () +. 5.0 in
      (* occupy the single admission slot with a raw, idle session *)
      let fd = Net_io.connect_unix ~path:h.socket ~deadline_s in
      let dec = Wire.decoder () in
      Net_io.send_all fd
        (Wire.encode (Wire.Hello { token = "occupant"; workload = "linked_list"; ack_every = 0 }))
        ~deadline_s;
      (match recv_msg fd dec ~deadline_s with
      | Wire.Hello_ok _ -> ()
      | _ -> Alcotest.fail "occupant admission failed");
      let fd2 = Net_io.connect_unix ~path:h.socket ~deadline_s in
      let dec2 = Wire.decoder () in
      Net_io.send_all fd2
        (Wire.encode (Wire.Hello { token = "latecomer"; workload = "linked_list"; ack_every = 0 }))
        ~deadline_s;
      (match recv_msg fd2 dec2 ~deadline_s with
      | Wire.Shed { retry_after_s; _ } -> check_bool "retry hint" true (retry_after_s > 0.0)
      | _ -> Alcotest.fail "expected Shed past max_sessions");
      Net_io.close_noerr fd2;
      (* freeing the slot lets the shed client in; its retry loop absorbs
         the shed responses in between *)
      Net_io.close_noerr fd;
      let st = ok_stats "latecomer" (run h "latecomer") in
      ignore st;
      check_matches_reference "latecomer" (session_dir h "latecomer"))

(* --- daemon restart ------------------------------------------------------ *)

(* Stream part of a session, drop the connection, take the whole daemon
   down and start a fresh one on the same root: the client's next attempt
   must resume from the journaled position and finish byte-identically. *)
let test_restart_resumes_from_journal () =
  with_harness (fun h ->
      let deadline_s = Net_io.now () +. 5.0 in
      let fd = Net_io.connect_unix ~path:h.socket ~deadline_s in
      let dec = Wire.decoder () in
      let send m = Net_io.send_all fd (Wire.encode m) ~deadline_s in
      send (Wire.Hello { token = "phoenix"; workload = "linked_list"; ack_every = 1 });
      (match recv_msg fd dec ~deadline_s with
      | Wire.Hello_ok { position = 0; _ } -> ()
      | _ -> Alcotest.fail "expected a fresh Hello_ok");
      (* stream the first 300 events by hand, then vanish mid-session *)
      let pos = ref 0 in
      while !pos < 300 do
        (match events.(!pos) with
        | Event.Access { instr; addr; size; is_store } ->
          let chunk =
            {
              Batch.instr = [| instr |];
              addr = [| addr |];
              size = [| size |];
              store = [| Bool.to_int is_store |];
              len = 1;
            }
          in
          send (Wire.Batch { start = !pos; chunk })
        | ev -> send (Wire.Ev { position = !pos; event = ev }));
        (match recv_msg fd dec ~deadline_s with
        | Wire.Ack { position } -> check_int "acked in order" (!pos + 1) position
        | _ -> Alcotest.fail "expected an Ack per frame at ack_every=1");
        incr pos
      done;
      Net_io.close_noerr fd;
      stop_daemon h;
      start_daemon h;
      let st = ok_stats "after restart" (run h "phoenix") in
      check_int "no reconnects against the new daemon" 0 st.Client.st_reconnects;
      (* the resumed stream skipped what the journal already held *)
      check_bool "resumed, not restarted" true
        (st.Client.st_frames < Array.length events / Batch.default_capacity + 60);
      check_matches_reference "after restart" (session_dir h "phoenix"))

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* A daemon session's manifest is the session manifest, holding the
   options the session runs under and no VM config: `session status`
   reads it, and `session resume` refuses it naming the daemon. A
   session cut off under default flags and finished by a daemon started
   with --max-streams 1 runs under the options it began with, so its
   profiles are the reference's. *)
let test_restart_keeps_session_options () =
  with_harness (fun h ->
      let cut = Net_fault.create { Net_fault.none with Net_fault.disconnect_before = Some 20 } in
      (match run h "steady" ~attempts:1 ~net:cut with
      | Ok _ -> Alcotest.fail "a session cut off with one attempt finished"
      | Error _ -> ());
      let dir = session_dir h "steady" in
      (match Ormp_session.Session.status ~dir with
      | Ok st ->
        check_string "status reads the workload" "linked_list" st.Ormp_session.Session.st_workload;
        check_bool "journaled events" true (Option.value ~default:0 st.st_journal > 0);
        check_bool "not complete" false st.st_complete
      | Error e -> Alcotest.failf "session status on a daemon session: %s" e);
      (match Ormp_session.Session.resume ~dir () with
      | Ok _ -> Alcotest.fail "resumed a daemon session without a VM config"
      | Error e -> check_bool ("resume names the daemon: " ^ e) true (contains e "ormp serve"));
      stop_daemon h;
      start_daemon ~max_streams:1 h;
      let st = ok_stats "finished under other flags" (run h "steady") in
      check_bool "resumed, not restarted" true (st.Client.st_frames < Array.length events);
      check_matches_reference "finished under other flags" dir;
      (* a session left by a daemon that wrote its own manifest format is
         refused, never run under guessed options *)
      let old = session_dir h "old-format" in
      Ormp_util.Fs.mkdirs old;
      let write name text =
        Out_channel.with_open_bin (Filename.concat old name) (fun oc -> output_string oc text)
      in
      write "manifest" "(ormp-serve-session (workload linked_list))\n";
      write "journal.trace" (Ormp_trace.Trace_file.header ^ "\n");
      let deadline_s = Net_io.now () +. 5.0 in
      let fd = Net_io.connect_unix ~path:h.socket ~deadline_s in
      Net_io.send_all fd
        (Wire.encode (Wire.Hello { token = "old-format"; workload = "linked_list"; ack_every = 0 }))
        ~deadline_s;
      (match recv_msg fd (Wire.decoder ()) ~deadline_s with
      | Wire.Err e -> check_bool ("refused: " ^ e) true (contains e "ormp-session")
      | _ -> Alcotest.fail "a session with an old-format manifest was served");
      Net_io.close_noerr fd)

(* --- live introspection --------------------------------------------------- *)

(* Each bundle is its trace.json alone: the trace validates and carries
   the dump reason; the daemon root holds no heartbeat file. *)
let validate_flight_bundles root =
  check_bool "no daemon heartbeat file" false (Sys.file_exists (Filename.concat root "heartbeat"));
  let flight_dir = Filename.concat root "flight" in
  let bundles = if Sys.file_exists flight_dir then Sys.readdir flight_dir else [||] in
  Array.iter
    (fun name ->
      let dir = Filename.concat flight_dir name in
      Alcotest.(check (array string)) ("flight bundle " ^ name) [| "trace.json" |] (Sys.readdir dir);
      match J.of_string (read_file (Filename.concat dir "trace.json")) with
      | Error e -> Alcotest.failf "flight bundle %s: trace.json: %s" name e
      | Ok j -> (
        (match Spans.validate_json j with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "flight bundle %s: trace.json does not validate: %s" name e);
        match Option.bind (Option.bind (J.member "otherData" j) (J.member "reason")) J.to_str with
        | Some reason -> check_bool (name ^ " has a reason") true (reason <> "")
        | None -> Alcotest.failf "flight bundle %s: no reason in trace.json" name))
    bundles;
  Array.length bundles

(* Stream 300 events by hand at ack_every=1, then ask for a snapshot on
   the same connection: the row must show exactly the position the client
   has had acked, with the WAL caught up. Then a faulted client resumes
   through a torn frame and every flight bundle the daemon dumped for it
   must validate. *)
let test_live_stats_rows_track_positions () =
  with_harness ~stats_file:"stats.json" (fun h ->
      let deadline_s = Net_io.now () +. 10.0 in
      let fd = Net_io.connect_unix ~path:h.socket ~deadline_s in
      let dec = Wire.decoder () in
      let send m = Net_io.send_all fd (Wire.encode m) ~deadline_s in
      send (Wire.Hello { token = "statly"; workload = "linked_list"; ack_every = 1 });
      (match recv_msg fd dec ~deadline_s with
      | Wire.Hello_ok { fresh = true; position = 0; _ } -> ()
      | _ -> Alcotest.fail "expected a fresh Hello_ok");
      let send_event pos =
        match events.(pos) with
        | Event.Access { instr; addr; size; is_store } ->
          let chunk =
            {
              Batch.instr = [| instr |];
              addr = [| addr |];
              size = [| size |];
              store = [| Bool.to_int is_store |];
              len = 1;
            }
          in
          send (Wire.Batch { start = pos; chunk })
        | ev -> send (Wire.Ev { position = pos; event = ev })
      in
      let expect_ack pos =
        match recv_msg fd dec ~deadline_s with
        | Wire.Ack { position } -> check_int "acked in order" (pos + 1) position
        | _ -> Alcotest.fail "expected an Ack per frame at ack_every=1"
      in
      for pos = 0 to 299 do
        send_event pos;
        expect_ack pos
      done;
      send Wire.Stats_req;
      let rec recv_stats () =
        match recv_msg fd dec ~deadline_s with
        | Wire.Stats s -> s
        | Wire.Ping ->
          send Wire.Pong;
          recv_stats ()
        | _ -> Alcotest.fail "expected a Stats frame"
      in
      let s = recv_stats () in
      check_int "one live session" 1 s.Stats.s_sessions_live;
      check_bool "live objects summed over sessions" true (s.Stats.s_live_objects > 0);
      check_bool "LEAP streams summed over sessions" true (s.Stats.s_leap_streams > 0);
      check_bool "start was counted" true (s.Stats.s_sessions_started >= 1);
      (match s.Stats.s_rows with
      | [ r ] ->
        check_string "row token" "statly" r.Stats.r_token;
        check_string "row workload" "linked_list" r.Stats.r_workload;
        check_int "row position is the acked position" 300 r.Stats.r_position;
        check_bool "journal has bytes" true (r.Stats.r_journal_bytes > 0);
        check_int "ack_every=1 leaves no journal lag" 0 r.Stats.r_journal_lag
      | rows -> Alcotest.failf "expected one session row, got %d" (List.length rows));
      (* the snapshot did not disturb the stream: it keeps flowing *)
      for pos = 300 to 309 do
        send_event pos;
        expect_ack pos
      done;
      Net_io.close_noerr fd;
      (* a torn-frame client forces a reconnect; the resume dumps a
         flight bundle, and the registry counts both sessions *)
      let st =
        ok_stats "faulted beside stats"
          (run h "flighty"
             ~net:(Net_fault.create { Net_fault.none with Net_fault.torn_frame = Some 9 }))
      in
      check_bool "fault forced a reconnect" true (st.Client.st_reconnects >= 1);
      match Client.fetch_stats ~socket:h.socket () with
      | Error m -> Alcotest.fail ("fetch_stats: " ^ m)
      | Ok s2 ->
        check_bool "both sessions started" true (s2.Stats.s_sessions_started >= 2);
        check_bool "resume was counted" true (s2.Stats.s_sessions_resumed >= 1);
        check_bool "flight dump was counted" true (s2.Stats.s_flight_dumps >= 1);
        check_bool "events flowed" true (s2.Stats.s_events_total > 300);
        let n = validate_flight_bundles h.root in
        check_bool "at least one flight bundle on disk" true (n >= 1);
        (* the stats file is a Stats frame's payload: it decodes, and
           renders back to its own bytes *)
        let path = Filename.concat h.root "stats.json" in
        let rec wait n = if n > 0 && not (Sys.file_exists path) then (Unix.sleepf 0.05; wait (n - 1)) in
        wait 100;
        let text = read_file path in
        match Stats.of_string text with
        | Ok s -> check_string "stats file renders back" text (Wire.stats_json s)
        | Error e -> Alcotest.failf "stats file does not decode: %s" e)

(* An exhausted retry budget must say why the attempts failed — here,
   that the socket does not exist — plus how many were sheds and how
   many reconnects. *)
let test_exhausted_budget_reports_reason () =
  let dir = tmpdir () in
  let socket = Filename.concat dir "absent.sock" in
  let retry = { Client.default_retry with Client.attempts = 2; backoff_s = 0.001 } in
  (match Client.run_session ~socket ~token:"gone" ~workload:"linked_list" ~events ~retry () with
  | Ok _ -> Alcotest.fail "session against a missing socket succeeded"
  | Error m ->
    check_bool ("reason in: " ^ m) true (contains m (Unix.error_message Unix.ENOENT));
    check_bool ("counts in: " ^ m) true (contains m "0 shed, 2 reconnects"));
  rm_rf dir

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ormp_server"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip at every slice size" `Quick test_wire_roundtrip;
          Alcotest.test_case "crc rejects corruption" `Quick test_wire_crc_rejects_corruption;
          Alcotest.test_case "crc error lands on its frame" `Quick
            test_wire_crc_error_at_its_frame;
          Alcotest.test_case "partial frames buffer visibly" `Quick
            test_wire_partial_frame_buffers;
          QCheck_alcotest.to_alcotest prop_stats_roundtrip;
          Alcotest.test_case "stats version is checked" `Quick test_stats_version_rejected;
          Alcotest.test_case "stats corruption is rejected" `Quick
            test_stats_corruption_rejected;
          Alcotest.test_case "stats rows are cut to fit the frame" `Quick
            test_stats_rows_cut_to_fit;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "stats rows track client positions" `Quick
            test_live_stats_rows_track_positions;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "clean session is byte-identical" `Quick
            test_clean_session_byte_identical;
          Alcotest.test_case "pooled daemon is byte-identical" `Quick
            test_pooled_daemon_byte_identical;
        ] );
      ( "faults",
        [
          Alcotest.test_case "torn frame isolated from neighbor" `Quick
            test_torn_frame_isolated_from_neighbor;
          Alcotest.test_case "every fault class recovers" `Quick
            test_every_fault_class_recovers;
          Alcotest.test_case "garbage connection isolated" `Quick
            test_garbage_connection_isolated;
          Alcotest.test_case "position gap is a protocol error" `Quick
            test_position_gap_is_protocol_error;
          Alcotest.test_case "non-canonical event is a protocol error" `Quick
            test_noncanonical_event_is_a_protocol_error;
          Alcotest.test_case "attached token cannot be stolen" `Quick
            test_duplicate_token_refused_while_attached;
          Alcotest.test_case "poisoned journal fails one session" `Quick
            test_poisoned_journal_fails_one_session;
          Alcotest.test_case "exhausted budget reports its reason" `Quick
            test_exhausted_budget_reports_reason;
        ] );
      ( "overload",
        [ Alcotest.test_case "shed past max-sessions" `Quick test_shed_past_max_sessions ] );
      ( "restart",
        [
          Alcotest.test_case "restart resumes from the journal" `Quick
            test_restart_resumes_from_journal;
          Alcotest.test_case "restart keeps the session's options" `Quick
            test_restart_keeps_session_options;
        ] );
    ]
