(* Tests for the telemetry layer: metric merging across domains, span
   nesting well-formedness, the zero-allocation guarantee of the disabled
   hot path, heartbeat persistence, and the leveled logger. *)

module Tm = Ormp_telemetry.Telemetry
module Metrics = Ormp_telemetry.Metrics
module Spans = Ormp_telemetry.Spans
module Heartbeat = Ormp_telemetry.Heartbeat
module Log = Ormp_telemetry.Log
module J = Ormp_util.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_sums () =
  Metrics.reset ();
  let c = Metrics.counter "t.sum" in
  Metrics.incr c;
  Metrics.add c 41;
  let snap = Metrics.snapshot () in
  check_int "summed" 42 (List.assoc "t.sum" snap.Metrics.snap_counters)

let test_gauge_latest_wins () =
  Metrics.reset ();
  let g = Metrics.gauge "t.gauge" in
  Metrics.set g 3.0;
  Metrics.set g 7.0;
  let snap = Metrics.snapshot () in
  Alcotest.(check (float 0.0)) "latest" 7.0 (List.assoc "t.gauge" snap.Metrics.snap_gauges)

let test_kind_mismatch_rejected () =
  let _ = Metrics.counter "t.kind" in
  check_bool "re-registering with another kind raises" true
    (try
       ignore (Metrics.gauge "t.kind");
       false
     with Invalid_argument _ -> true)

let test_histogram_summary () =
  Metrics.reset ();
  let h = Metrics.histogram "t.hist" in
  List.iter (Metrics.observe h) [ 100.0; 200.0; 400.0; 800.0 ];
  let snap = Metrics.snapshot () in
  let s = List.assoc "t.hist" snap.Metrics.snap_hists in
  check_int "count" 4 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 1500.0 s.Metrics.sum;
  Alcotest.(check (float 1e-9)) "min" 100.0 s.Metrics.min;
  Alcotest.(check (float 1e-9)) "max" 800.0 s.Metrics.max;
  (* Quantiles come back through exp2 of the log2 buckets: within a
     bucket width (an eighth of a doubling, ~9%) of the true values. *)
  check_bool "p50 near the middle" true (s.Metrics.p50 >= 150.0 && s.Metrics.p50 <= 450.0);
  check_bool "p99 near the top" true (s.Metrics.p99 >= 700.0 && s.Metrics.p99 <= 900.0)

(* The merge property the snapshot promises: counters and histogram
   totals recorded from several domains at once read back exactly as if
   one domain had recorded everything. *)
let prop_cross_domain_merge =
  QCheck.Test.make ~name:"snapshot merges domains into exact totals" ~count:15
    QCheck.(pair (int_range 1 300) (int_range 1 4))
    (fun (per_domain, extra_domains) ->
      Metrics.reset ();
      let c = Metrics.counter "t.merge.counter" in
      let h = Metrics.histogram "t.merge.hist" in
      let body () =
        for i = 1 to per_domain do
          Metrics.incr c;
          Metrics.observe h (float_of_int i)
        done
      in
      let ds = List.init extra_domains (fun _ -> Domain.spawn body) in
      body ();
      List.iter Domain.join ds;
      let snap = Metrics.snapshot () in
      let domains = extra_domains + 1 in
      let expected = domains * per_domain in
      let counted =
        match List.assoc_opt "t.merge.counter" snap.Metrics.snap_counters with
        | Some v -> v
        | None -> 0
      in
      let hist_ok =
        match List.assoc_opt "t.merge.hist" snap.Metrics.snap_hists with
        | None -> false
        | Some s ->
          let one_domain_sum = float_of_int (per_domain * (per_domain + 1) / 2) in
          s.Metrics.count = expected
          && Float.abs (s.Metrics.sum -. (float_of_int domains *. one_domain_sum)) < 1e-6
          && s.Metrics.min = 1.0
          && s.Metrics.max = float_of_int per_domain
      in
      counted = expected && hist_ok)

let test_metrics_json_roundtrip () =
  Metrics.reset ();
  Metrics.add (Metrics.counter "t.json \"quoted\"") 5;
  Metrics.set (Metrics.gauge "t.json.gauge") 2.5;
  Metrics.observe (Metrics.histogram "t.json.hist") 1234.0;
  Metrics.observe (Metrics.histogram "t.json.hist") 0.1;
  let snap = Metrics.snapshot () in
  (match Metrics.of_json (Metrics.to_json snap) with
  | Ok back ->
    check_bool "counters, gauges and histogram summaries come back" true (back = snap)
  | Error e -> Alcotest.fail ("metrics JSON does not decode: " ^ e));
  (* Through the text, floats come back as %.6g prints them, so the
     decoded snapshot renders the same text again. *)
  let text = J.to_string (Metrics.to_json snap) in
  (match Result.bind (J.of_string text) Metrics.of_json with
  | Ok back -> Alcotest.(check string) "text again" text (J.to_string (Metrics.to_json back))
  | Error e -> Alcotest.fail ("metrics.json text does not decode: " ^ e));
  (* A mistyped, missing or extra member is refused. *)
  List.iter
    (fun doc ->
      match Result.bind (J.of_string doc) Metrics.of_json with
      | Ok _ -> Alcotest.failf "decoded %s" doc
      | Error _ -> ())
    [
      {|{"counters":{"a":1.5},"gauges":{},"histograms":{}}|};
      {|{"counters":{},"gauges":{}}|};
      {|{"counters":{},"gauges":{},"histograms":{},"extra":0}|};
      {|{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":1}}}|};
    ]

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting_wellformed () =
  Spans.reset ();
  Tm.enable ();
  Tm.span ~name:"outer" (fun () ->
      Tm.span ~name:"inner" (fun () -> ());
      (* The E record must be emitted even on the exception path. *)
      try Tm.span ~name:"boom" (fun () -> raise Exit) with Exit -> ());
  Tm.disable ();
  match Spans.validate_json (Spans.to_json ()) with
  | Ok n -> check_bool "three complete spans" true (n >= 3)
  | Error e -> Alcotest.fail ("trace does not validate: " ^ e)

let test_span_disabled_is_transparent () =
  Spans.reset ();
  Tm.disable ();
  Alcotest.(check int) "value passes through" 17 (Tm.span ~name:"off" (fun () -> 17));
  match Spans.validate_json (Spans.to_json ()) with
  | Ok n -> check_int "nothing recorded" 0 n
  | Error e -> Alcotest.fail e

let test_span_validation_rejects_bad_traces () =
  let expect_error doc =
    match J.of_string doc with
    | Error e -> Alcotest.fail ("test document does not parse: " ^ e)
    | Ok j -> (
      match Spans.validate_json j with
      | Ok _ -> Alcotest.fail ("accepted invalid trace: " ^ doc)
      | Error _ -> ())
  in
  (* E closing a span with the wrong name. *)
  expect_error
    {|{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1},
                      {"name":"b","ph":"E","ts":1,"pid":1,"tid":1}]}|};
  (* E with no open span. *)
  expect_error {|{"traceEvents":[{"name":"a","ph":"E","ts":0,"pid":1,"tid":1}]}|};
  (* Unclosed B. *)
  expect_error {|{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1}]}|};
  (* Unknown phase. *)
  expect_error {|{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":1,"tid":1}]}|};
  (* Missing traceEvents entirely. *)
  expect_error {|{"other": []}|}

let test_span_interleaved_tids_validate () =
  (* Per-tid LIFO, not global: interleaving across threads is legal. *)
  let doc =
    {|{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1},
                      {"name":"b","ph":"B","ts":1,"pid":1,"tid":2},
                      {"name":"a","ph":"E","ts":2,"pid":1,"tid":1},
                      {"name":"b","ph":"E","ts":3,"pid":1,"tid":2}]}|}
  in
  match Option.map Spans.validate_json (Result.to_option (J.of_string doc)) with
  | Some (Ok n) -> check_int "two spans" 2 n
  | _ -> Alcotest.fail "interleaved tids should validate"

(* ------------------------------------------------------------------ *)
(* Zero allocation when disabled                                       *)
(* ------------------------------------------------------------------ *)

(* The contract the instrumentation pass relies on: with telemetry off,
   the batched translate hot path allocates exactly as much as before the
   instrumentation existed — nothing, once the MRU cache is warm. The
   empty-closure loop is measured the same way so any fixed measurement
   cost cancels out. *)
let test_disabled_hot_path_zero_alloc () =
  Tm.disable ();
  let omc = Ormp_core.Omc.create ~site_name:(Printf.sprintf "s%d") () in
  for i = 0 to 7 do
    Ormp_core.Omc.on_alloc omc ~time:i ~site:1 ~addr:(i * 128) ~size:64 ~type_name:None
  done;
  let len = 64 in
  (* Two distinct objects per instruction slot: exactly what the per-
     instruction 2-way MRU cache holds, so the steady state is all hits. *)
  let instrs = Array.init len (fun i -> i land 3) in
  let addrs = Array.init len (fun i -> ((i land 7) * 128) + 8) in
  let groups = Array.make len 0 in
  let serials = Array.make len 0 in
  let offsets = Array.make len 0 in
  let call () =
    Ormp_core.Omc.translate_batch omc ~instrs ~addrs ~len ~groups ~serials ~offsets
  in
  let minor_delta f =
    f ();
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to 50 do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  let baseline = minor_delta (fun () -> ()) in
  let measured = minor_delta call in
  Alcotest.(check (float 0.0)) "no allocation beyond the empty loop" baseline measured

(* ------------------------------------------------------------------ *)
(* Heartbeat                                                           *)
(* ------------------------------------------------------------------ *)

let sample =
  {
    Heartbeat.wall_s = 1.5;
    position = 4096;
    events_per_sec = 125000.0;
    live_objects = 96;
    grammar_symbols = 512;
    leap_streams = 7;
    journal_bytes = 73000;
    snapshot_bytes = 11000;
    last_checkpoint = 4000;
    degraded = [ "grammar-rotation"; "leap-streams" ];
  }

let test_heartbeat_roundtrip () =
  match Ormp_util.Sexp.(Reader.run (Writer.render Heartbeat.write sample) Heartbeat.read) with
  | Error e -> Alcotest.fail e
  | Ok s ->
    check_int "position" sample.Heartbeat.position s.Heartbeat.position;
    check_int "checkpoint" sample.Heartbeat.last_checkpoint s.Heartbeat.last_checkpoint;
    Alcotest.(check (list string))
      "degraded" sample.Heartbeat.degraded s.Heartbeat.degraded;
    Alcotest.(check (float 1e-9)) "wall" sample.Heartbeat.wall_s s.Heartbeat.wall_s

let test_heartbeat_torn_tail () =
  let path = Filename.temp_file "ormp-test-heartbeat" ".hb" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Heartbeat.append path sample;
  Heartbeat.append path { sample with Heartbeat.position = 8192 };
  (* A crash mid-write leaves a torn final line; the loader must keep the
     intact prefix. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "((wall_s 2.0) (posit";
  close_out oc;
  let samples = Heartbeat.load path in
  check_int "torn tail skipped" 2 (List.length samples);
  check_int "last intact sample" 8192 (List.nth samples 1).Heartbeat.position

let test_heartbeat_missing_file () =
  check_int "missing file is empty" 0 (List.length (Heartbeat.load "/nonexistent/hb"))

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)
(* ------------------------------------------------------------------ *)

let test_log_levels () =
  let seen = Buffer.create 64 in
  Log.set_emitter (Buffer.add_string seen);
  Fun.protect ~finally:(fun () ->
      Log.set_emitter (fun line ->
          output_string stderr line;
          flush stderr);
      Log.set_level (Log.default_level ()))
  @@ fun () ->
  Log.set_level Log.Info;
  Log.infof ~src:"test" "visible %d" 1;
  Log.debugf ~src:"test" "hidden %d" 2;
  Log.set_level Log.Quiet;
  Log.errf ~src:"test" "also hidden";
  let out = Buffer.contents seen in
  check_bool "info emitted" true
    (String.length out > 0 && out = "[info] test: visible 1\n");
  check_bool "debug and quiet suppressed" false
    (String.length out <> String.length "[info] test: visible 1\n")

let test_log_level_parse () =
  let lvl s = Log.level_of_string s in
  check_bool "quiet aliases" true
    (lvl "quiet" = Some Log.Quiet && lvl "off" = Some Log.Quiet && lvl "none" = Some Log.Quiet);
  check_bool "warn aliases" true
    (lvl "warn" = Some Log.Warn && lvl "Warning" = Some Log.Warn);
  check_bool "unknown" true (lvl "blah" = None)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

module Flight = Ormp_telemetry.Flight

(* The sessions of the events a flight trace holds, oldest first: one
   B/E pair per event. *)
let trace_sessions j =
  match J.member "traceEvents" j with
  | Some (J.List evs) ->
    List.filter_map
      (fun e ->
        if J.member "ph" e = Some (J.String "B") then
          Option.bind (Option.bind (J.member "args" e) (J.member "session")) J.to_str
        else None)
      evs
  | _ -> Alcotest.fail "no traceEvents"

let test_flight_ring_overwrites_oldest () =
  let f = Flight.create ~cap:4 () in
  for i = 1 to 10 do
    Flight.record f ~kind:"k" ~session:(Printf.sprintf "s%d" i) ~detail:""
  done;
  check_int "recorded counts everything" 10 (Flight.recorded f);
  check_int "dropped is recorded minus cap" 6 (Flight.dropped f);
  Alcotest.(check (list string))
    "the ring holds the newest cap events, oldest first"
    [ "s7"; "s8"; "s9"; "s10" ]
    (trace_sessions (Flight.to_trace_json f ~reason:""))

let test_flight_trace_validates () =
  let f = Flight.create ~cap:8 () in
  List.iter
    (fun k -> Flight.record f ~kind:k ~session:"sess-1" ~detail:"why it happened")
    [ "hello"; "shed"; "proto-error"; "deadline-kill"; "finish" ];
  match Spans.validate_json (Flight.to_trace_json f ~reason:"test") with
  | Ok n -> check_int "one span per event" 5 n
  | Error e -> Alcotest.fail ("flight trace does not validate: " ^ e)

let test_flight_empty_ring_exports () =
  let f = Flight.create ~cap:4 () in
  check_int "nothing dropped" 0 (Flight.dropped f);
  match Spans.validate_json (Flight.to_trace_json f ~reason:"") with
  | Ok n -> check_int "empty trace validates" 0 n
  | Error e -> Alcotest.fail e

let test_flight_dump_bundle () =
  let dir = Filename.temp_file "ormp-flight" "" in
  Sys.remove dir;
  let nested = Filename.concat dir "deeper" in
  Fun.protect ~finally:(fun () ->
      (try Sys.remove (Filename.concat nested Flight.trace_file) with Sys_error _ -> ());
      (try Unix.rmdir nested with Unix.Unix_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let f = Flight.create ~cap:8 () in
  Flight.record f ~kind:"resume" ~session:"tok a" ~detail:"position 300 (torn tail)";
  Flight.record f ~kind:"proto-error" ~session:"tok b" ~detail:"position gap";
  let dump () =
    match Flight.dump f ~dir:nested ~reason:"unit test" with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("dump failed: " ^ m)
  in
  dump ();
  (* A dump killed half-way leaves only its temporary directory beside the
     bundle; the next dump removes it and replaces the bundle whole. *)
  let stale = Filename.concat dir ".deeper.tmp" in
  Sys.mkdir stale 0o755;
  Out_channel.with_open_bin (Filename.concat stale Flight.trace_file) (fun oc ->
      output_string oc "{\"traceEvents\":[");
  dump ();
  Alcotest.(check (array string)) "only the bundle remains" [| "deeper" |] (Sys.readdir dir);
  (* the bundle is its trace: it passes the span validator and carries
     the reason and the counts *)
  let trace =
    In_channel.with_open_bin (Filename.concat nested Flight.trace_file)
      In_channel.input_all
  in
  match J.of_string trace with
  | Error e -> Alcotest.fail ("dumped trace.json does not parse: " ^ e)
  | Ok j ->
    (match Spans.validate_json j with
    | Ok n -> check_int "dumped spans" 2 n
    | Error e -> Alcotest.fail ("dumped trace.json does not validate: " ^ e));
    Alcotest.(check (list string)) "both events, blanks intact" [ "tok a"; "tok b" ]
      (trace_sessions j);
    let other name conv = Option.bind (Option.bind (J.member "otherData" j) (J.member name)) conv in
    Alcotest.(check (option string)) "reason" (Some "unit test") (other "reason" J.to_str);
    Alcotest.(check (option int)) "recorded" (Some 2) (other "recorded" J.to_int);
    Alcotest.(check (option int)) "dropped" (Some 0) (other "dropped" J.to_int)

(* ------------------------------------------------------------------ *)

(* [--telemetry DIR] may name a directory whose parents do not exist
   yet, as [session run --dir] may. *)
let test_reports_into_missing_nested_dir () =
  let root = Filename.temp_file "ormp-reports" "" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let files = [ Tm.metrics_json_file; Tm.trace_file ] in
  Fun.protect ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) files;
      List.iter
        (fun d -> try Sys.rmdir d with Sys_error _ -> ())
        [ dir; Filename.dirname dir; root ])
  @@ fun () ->
  Tm.write_reports ~dir;
  List.iter (fun f -> check_bool f true (Sys.file_exists (Filename.concat dir f))) files

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_telemetry"
    [
      ( "metrics",
        [
          tc "counter sums" test_counter_sums;
          tc "gauge latest wins" test_gauge_latest_wins;
          tc "kind mismatch rejected" test_kind_mismatch_rejected;
          tc "histogram summary" test_histogram_summary;
          tc "json roundtrip" test_metrics_json_roundtrip;
          tc "reports into a missing nested dir" test_reports_into_missing_nested_dir;
          QCheck_alcotest.to_alcotest prop_cross_domain_merge;
        ] );
      ( "spans",
        [
          tc "nesting well-formed" test_span_nesting_wellformed;
          tc "disabled is transparent" test_span_disabled_is_transparent;
          tc "validation rejects bad traces" test_span_validation_rejects_bad_traces;
          tc "interleaved tids validate" test_span_interleaved_tids_validate;
        ] );
      ( "hot path", [ tc "zero alloc when disabled" test_disabled_hot_path_zero_alloc ] );
      ( "heartbeat",
        [
          tc "roundtrip" test_heartbeat_roundtrip;
          tc "torn tail" test_heartbeat_torn_tail;
          tc "missing file" test_heartbeat_missing_file;
        ] );
      ( "log",
        [ tc "levels" test_log_levels; tc "level parse" test_log_level_parse ] );
      ( "flight",
        [
          tc "ring overwrites oldest" test_flight_ring_overwrites_oldest;
          tc "trace validates as spans" test_flight_trace_validates;
          tc "empty ring exports" test_flight_empty_ring_exports;
          tc "dump bundle roundtrips" test_flight_dump_bundle;
        ] );
    ]
