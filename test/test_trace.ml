open Ormp_trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Instr                                                               *)
(* ------------------------------------------------------------------ *)

let test_register_dense_ids () =
  let t = Instr.create_table () in
  check_int "first id" 0 (Instr.register t ~name:"a" Instr.Load);
  check_int "second id" 1 (Instr.register t ~name:"b" Instr.Store);
  check_int "third id" 2 (Instr.register t ~name:"c" Instr.Alloc_site);
  check_int "count" 3 (Instr.count t)

let test_info () =
  let t = Instr.create_table () in
  let id = Instr.register t ~name:"x.load" Instr.Load in
  let i = Instr.info t id in
  Alcotest.(check string) "name" "x.load" i.Instr.name;
  check_bool "kind" true (i.Instr.kind = Instr.Load);
  check_int "id" id i.Instr.id

let test_info_unregistered () =
  let t = Instr.create_table () in
  check_bool "raises" true
    (try
       ignore (Instr.info t 0);
       false
     with Invalid_argument _ -> true)

let test_mem_ops_filter () =
  let t = Instr.create_table () in
  ignore (Instr.register t ~name:"l" Instr.Load);
  ignore (Instr.register t ~name:"a" Instr.Alloc_site);
  ignore (Instr.register t ~name:"s" Instr.Store);
  ignore (Instr.register t ~name:"f" Instr.Free_site);
  check_int "only loads and stores" 2 (List.length (Instr.mem_ops t));
  check_int "all" 4 (List.length (Instr.all t))

let test_kind_names () =
  Alcotest.(check string) "load" "load" (Instr.kind_name Instr.Load);
  Alcotest.(check string) "store" "store" (Instr.kind_name Instr.Store);
  Alcotest.(check string) "alloc" "alloc" (Instr.kind_name Instr.Alloc_site);
  Alcotest.(check string) "free" "free" (Instr.kind_name Instr.Free_site)

(* ------------------------------------------------------------------ *)
(* Event                                                               *)
(* ------------------------------------------------------------------ *)

let ld = Event.Access { instr = 3; addr = 0x100; size = 8; is_store = false }
let st = Event.Access { instr = 4; addr = 0x108; size = 8; is_store = true }
let al = Event.Alloc { site = 1; addr = 0x200; size = 64; type_name = Some "node" }
let fr = Event.Free { addr = 0x200; site = None }

let test_is_access () =
  check_bool "load" true (Event.is_access ld);
  check_bool "store" true (Event.is_access st);
  check_bool "alloc" false (Event.is_access al);
  check_bool "free" false (Event.is_access fr)

let test_pp () =
  Alcotest.(check string) "load" "ld i3 0x100+8" (Format.asprintf "%a" Event.pp ld);
  Alcotest.(check string) "store" "st i4 0x108+8" (Format.asprintf "%a" Event.pp st);
  Alcotest.(check string) "alloc" "alloc s1 0x200+64 :node" (Format.asprintf "%a" Event.pp al);
  Alcotest.(check string) "free" "free 0x200" (Format.asprintf "%a" Event.pp fr)

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)
(* ------------------------------------------------------------------ *)

let test_null () =
  (* Must simply not fail. *)
  List.iter Sink.null [ ld; st; al; fr ]

(* ------------------------------------------------------------------ *)
(* Trace_file                                                          *)
(* ------------------------------------------------------------------ *)

let sample_events =
  [| ld; al; st; fr; Event.Alloc { site = 2; addr = 0x400; size = 8; type_name = None } |]

let test_trace_file_roundtrip () =
  let path = Filename.temp_file "ormp_trace" ".trace" in
  Trace_file.save path sample_events;
  (match Trace_file.load path with
  | Ok evs -> check_bool "events identical" true (evs = sample_events)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let test_trace_file_replay_streams () =
  let path = Filename.temp_file "ormp_trace" ".trace" in
  Trace_file.save path sample_events;
  let seen = Ormp_util.Vec.create () in
  (match Trace_file.replay path (Ormp_util.Vec.push seen) with
  | Ok n -> check_int "count returned" 5 n
  | Error msg -> Alcotest.fail msg);
  check_bool "streamed in order" true (Ormp_util.Vec.to_array seen = sample_events);
  Sys.remove path

let test_trace_file_type_names_with_spaces () =
  let path = Filename.temp_file "ormp_trace" ".trace" in
  let evs = [| Event.Alloc { site = 1; addr = 8; size = 16; type_name = Some "big node" } |] in
  Trace_file.save path evs;
  (match Trace_file.load path with
  | Ok got -> check_bool "type preserved" true (got = evs)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let test_trace_file_errors () =
  check_bool "missing file" true (Result.is_error (Trace_file.replay "/nonexistent" Sink.null));
  let path = Filename.temp_file "ormp_trace" ".trace" in
  let oc = open_out path in
  output_string oc "not a trace\n";
  close_out oc;
  check_bool "bad header" true (Result.is_error (Trace_file.replay path Sink.null));
  let oc = open_out path in
  output_string oc "ormp-trace 1\nA x y z w\n";
  close_out oc;
  (match Trace_file.replay path Sink.null with
  | Error msg -> check_bool "names line" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "accepted malformed line");
  Sys.remove path

(* --- the renderer and the parser against test/trace_legacy.ml --------- *)

let gen_int =
  QCheck.Gen.(
    oneof
      [
        oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1; 99; 100; -100 ];
        int;
        small_signed_int;
        map (fun n -> -n) nat;
      ])

(* Type names with spaces, dashes and tabs, empty ones included. *)
let gen_name = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'Z'; ' '; '-'; '_'; '\t'; '7' ]) (int_range 0 6))

let gen_event =
  QCheck.Gen.(
    oneof
      [
        map4
          (fun instr addr size is_store -> Event.Access { instr; addr; size; is_store })
          gen_int gen_int gen_int bool;
        map4
          (fun site addr size type_name -> Event.Alloc { site; addr; size; type_name })
          gen_int gen_int gen_int (opt gen_name);
        map2 (fun addr site -> Event.Free { addr; site }) gen_int (opt gen_int);
      ])

let arb_events =
  QCheck.make
    ~print:(fun evs -> String.concat "" (List.map Trace_legacy.event_line evs))
    QCheck.Gen.(list_size (int_range 1 8) gen_event)

(* One buffer, reused across cases and appended to within one: its bytes
   must be the legacy lines, concatenated. *)
let prop_render_equals_legacy =
  let b = Trace_file.buffer () in
  QCheck.Test.make ~name:"render = legacy Printf lines" ~count:2000 arb_events (fun evs ->
      Trace_file.clear b;
      List.iter (Trace_file.render b) evs;
      let got = Bytes.sub_string (Trace_file.bytes b) 0 (Trace_file.length b) in
      let want = String.concat "" (List.map Trace_legacy.event_line evs) in
      got = want
      && List.for_all (fun ev -> Trace_file.event_line ev = Trace_legacy.event_line ev) evs)

let test_render_access_extremes () =
  let b = Trace_file.buffer () in
  List.iter
    (fun (instr, addr, size, is_store) ->
      Trace_file.clear b;
      Trace_file.render_access b ~instr ~addr ~size ~is_store;
      Alcotest.(check string)
        "render_access = legacy"
        (Trace_legacy.event_line (Event.Access { instr; addr; size; is_store }))
        (Bytes.sub_string (Trace_file.bytes b) 0 (Trace_file.length b)))
    [
      (min_int, max_int, -1, true);
      (max_int, min_int, 0, false);
      (0, -4096, min_int, true);
      (7, 10, 100, false);
    ]

(* Lines for the parser: rendered events without their newline, then
   fields swapped for other spellings (signs, base prefixes, underscores,
   19+ digits, doubled or trailing blanks, missing and extra fields). *)
let gen_line =
  QCheck.Gen.(
    let field =
      oneof
        [
          map string_of_int gen_int;
          oneofl
            [
              ""; "-"; "+5"; "0x1f"; "0b101"; "0o17"; "1_000"; "-0"; "007"; "4611686018427387904";
              "-4611686018427387905"; "99999999999999999999"; "1"; "0"; "x"; " "; "\t";
            ];
        ]
    in
    let tag = oneofl [ "A"; "+"; "-"; "B"; "AA"; "" ] in
    oneof
      [
        map
          (fun ev ->
            let l = Trace_legacy.event_line ev in
            String.sub l 0 (String.length l - 1))
          gen_event;
        map2 (fun t fs -> String.concat " " (t :: fs)) tag (list_size (int_range 0 6) field);
        map2 (fun ev pad -> String.trim (Trace_legacy.event_line ev) ^ pad) gen_event
          (oneofl [ " "; "\t"; "  "; "\r"; "" ]);
      ])

(* One syntax: the parser accepts a line iff the legacy parser reads it
   as an event whose legacy rendering is that very line. *)
let prop_parse_is_exact_legacy =
  QCheck.Test.make ~name:"parse_line = exact legacy lines" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_line)
    (fun line ->
      let exact =
        match Trace_legacy.parse_line line with
        | Ok ev when Trace_legacy.event_line ev = line ^ "\n" -> Ok ev
        | Ok _ | Error _ -> Error ()
      in
      match (Trace_file.parse_line line, exact) with
      | Ok ev, Ok want -> ev = want
      | Error _, Error () -> true
      | Ok _, Error () | Error _, Ok _ -> false)

let write_trace body =
  let path = Filename.temp_file "ormp_trace" ".trace" in
  Out_channel.with_open_bin path (fun oc -> output_string oc body);
  path

(* A final line without its newline is a torn write, whether or not it
   would parse: dropped and reported, never delivered as another event. *)
let test_trace_file_torn_final_line () =
  List.iter
    (fun torn ->
      let path = write_trace ("ormp-trace 1\nA 1 4096 8 0\n+ 2 8192 64 node\n" ^ torn) in
      let warned = ref 0 and seen = ref 0 in
      (match Trace_file.replay ~on_truncated:(fun _ -> incr warned) path (fun _ -> incr seen) with
      | Ok n -> check_int (Printf.sprintf "%S: count" torn) 2 n
      | Error e -> Alcotest.failf "%S: %s" torn e);
      check_int (Printf.sprintf "%S: delivered" torn) 2 !seen;
      check_int (Printf.sprintf "%S: warned once" torn) 1 !warned;
      Sys.remove path)
    [ "- 4096 3"; "+ 8 8192 64 lea"; "- 40" ]

(* Errors name the physical line, the header being line 1; a blank line
   is an error, not skipped. *)
let test_trace_file_blank_line () =
  let path = write_trace "ormp-trace 1\nA 1 4096 8 0\n\nA 2 4104 8 1\n" in
  (match Trace_file.replay ~on_truncated:(fun _ -> ()) path Sink.null with
  | Ok _ -> Alcotest.fail "blank line accepted"
  | Error e ->
    check_bool (Printf.sprintf "%S names line 3" e) true (String.starts_with ~prefix:"line 3:" e));
  Sys.remove path

let test_trace_file_profiler_replay_equals_live () =
  (* Record a workload, replay the file through WHOMP: identical profile. *)
  let program = Ormp_workloads.Micro.linked_list ~nodes:8 ~sweeps:2 () in
  let r = Ormp_util.Vec.create () in
  ignore (Ormp_vm.Runner.run program (Ormp_util.Vec.push r));
  let path = Filename.temp_file "ormp_trace" ".trace" in
  Trace_file.save path (Ormp_util.Vec.to_array r);
  let live = Ormp_whomp.Whomp.profile program in
  let sink, fin = Ormp_whomp.Whomp.sink ~site_name:(Printf.sprintf "s%d") () in
  (match Trace_file.replay path sink with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let replayed = fin ~elapsed:0.0 in
  check_int "same collected" live.Ormp_whomp.Whomp.collected replayed.Ormp_whomp.Whomp.collected;
  check_int "same OMSG size" (Ormp_whomp.Whomp.omsg_size live)
    (Ormp_whomp.Whomp.omsg_size replayed);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)
(* ------------------------------------------------------------------ *)

let test_worker_stop_without_drain_loses_nothing () =
  (* Regression: stop with messages still in flight must process every
     pushed message before the consumer exits — the consumer may observe
     an empty ring, then the final push and stop_flag land, and it must
     re-poll rather than exit. Many small rounds widen the race window.

     Kept as a real-threads smoke test. The exhaustive counterpart is the
     worker_stop_no_drain litmus in Ormp_modelcheck.Litmus, which explores
     every interleaving at small configurations instead of sampling 200
     random ones (and worker_stop_no_drain_racy, which reverts the fix and
     watches the checker rediscover the lost message). *)
  for round = 1 to 200 do
    let n = 16 + (round mod 7) in
    let sum = ref 0 in
    let w = Worker.spawn ~capacity:4 ~name:"test" ~f:(fun x -> sum := !sum + x) () in
    let expected = ref 0 in
    for i = 1 to n do
      Worker.push w i;
      expected := !expected + i
    done;
    Worker.stop w;
    check_int (Printf.sprintf "round %d: all messages processed" round) !expected !sum;
    check_int (Printf.sprintf "round %d: nothing pending" round) 0 (Worker.pending w)
  done

exception Boom of int

let prop_worker_failure_containment =
  (* An exception escaping [f] mid-stream surfaces on the producer with
     the original exception (and backtrace), from whichever producer call
     observes it first — a push blocked on a full ring, or the final stop.
     The worker keeps consuming and discarding, so stop never hangs and
     nothing stays pending. Exhaustive counterpart: the
     worker_failure_containment litmus in Ormp_modelcheck.Litmus. *)
  QCheck.Test.make ~name:"failure surfaces on producer; worker keeps draining" ~count:100
    QCheck.(pair (int_range 1 40) (int_range 1 40))
    (fun (a, k) ->
      let n = max a k in
      let seen = ref 0 in
      let w =
        Worker.spawn ~capacity:4 ~name:"qc-fail"
          ~f:(fun x -> if x = k then raise (Boom x) else incr seen)
          ()
      in
      let surfaced = ref None in
      (try
         for i = 1 to n do
           Worker.push w i
         done
       with Boom x -> surfaced := Some x);
      (try Worker.stop w with Boom x -> surfaced := Some x);
      (* stop joined the thread, so [seen] is safe to read and nothing is
         in flight; messages before the poisoned one were all processed,
         in order, and everything after it was discarded. *)
      !surfaced = Some k && !seen = k - 1 && Worker.pending w = 0)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_trace"
    [
      ( "instr",
        [
          tc "dense ids" test_register_dense_ids;
          tc "info" test_info;
          tc "unregistered" test_info_unregistered;
          tc "mem_ops filter" test_mem_ops_filter;
          tc "kind names" test_kind_names;
        ] );
      ("event", [ tc "is_access" test_is_access; tc "pp" test_pp ]);
      ( "sink",
        [
          tc "null" test_null;
        ] );
      ( "trace_file",
        [
          tc "roundtrip" test_trace_file_roundtrip;
          tc "replay streams" test_trace_file_replay_streams;
          tc "type names with spaces" test_trace_file_type_names_with_spaces;
          tc "errors" test_trace_file_errors;
          tc "profiler replay equals live" test_trace_file_profiler_replay_equals_live;
          tc "render_access extremes" test_render_access_extremes;
          QCheck_alcotest.to_alcotest prop_render_equals_legacy;
          QCheck_alcotest.to_alcotest prop_parse_is_exact_legacy;
          tc "torn final line dropped" test_trace_file_torn_final_line;
          tc "blank line is an error" test_trace_file_blank_line;
        ] );
      ( "worker",
        [
          tc "stop without drain loses nothing" test_worker_stop_without_drain_loses_nothing;
          QCheck_alcotest.to_alcotest prop_worker_failure_containment;
        ] );
    ]
