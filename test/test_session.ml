(* Crash-safe sessions: checkpoint/resume byte-identity, durable-file
   primitives, fault-injected degradation, and the supervised suite. *)

module Crc32 = Ormp_util.Crc32
module Seq_c = Ormp_sequitur.Sequitur
module C = Ormp_lmad.Compressor
module Storage = Ormp_session.Storage
module Journal = Ormp_session.Journal
module Snapshot = Ormp_session.Snapshot
module Session = Ormp_session.Session
module Supervise = Ormp_session.Supervise
module Suite = Ormp_session.Suite
module Faults = Ormp_workloads.Faults
module Micro = Ormp_workloads.Micro
module Event = Ormp_trace.Event

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

open Files

(* A snapshot's payload as [Snapshot.save] renders it, and its decoding. *)
let snapshot_payload = Ormp_util.Sexp.Writer.render Snapshot.write

let decode_snapshot payload =
  Result.bind (Ormp_util.Sexp.of_string payload) Snapshot.of_sexp

(* --- CRC-32 ------------------------------------------------------------ *)

let test_crc32_vectors () =
  (* The IEEE/zlib check value. *)
  check_int "123456789" 0xCBF43926 (Crc32.string "123456789");
  check_int "empty" 0 (Crc32.string "");
  check_int "incremental = whole"
    (Crc32.string "hello world")
    (Crc32.update (Crc32.update 0 "hello ") "world")

(* --- storage ----------------------------------------------------------- *)

let test_seal_unseal () =
  let payload = "some payload\nwith lines; and (sexps)" in
  (match Storage.unseal (Storage.seal payload) with
  | Ok p -> check_string "roundtrip" payload p
  | Error e -> Alcotest.fail e);
  (match Storage.unseal (Storage.seal payload ^ "x") with
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error _ -> ());
  let sealed = Storage.seal payload in
  let corrupt = "X" ^ String.sub sealed 1 (String.length sealed - 1) in
  check_bool "corruption detected" true (Result.is_error (Storage.unseal corrupt));
  (* A payload containing the marker itself: the trailer is found from the
     end, so sealing still round-trips. *)
  let tricky = "a\n;crc 12345\nb" in
  match Storage.unseal (Storage.seal tricky) with
  | Ok p -> check_string "marker in payload" tricky p
  | Error e -> Alcotest.fail e

let test_atomic_write_faults () =
  let dir = tmpdir () in
  let path = Filename.concat dir "f" in
  Storage.write_atomic ~path "first";
  check_string "written" "first" (read_file path);
  (* A torn second write must leave the first content untouched. *)
  let io = Faults.Io.create { Faults.Io.none with torn_write = Some 1 } in
  (match Storage.write_atomic ~io ~path "second-content" with
  | () -> Alcotest.fail "torn write did not raise"
  | exception Faults.Io.Torn_write _ -> ());
  check_string "old content intact" "first" (read_file path);
  check_bool "no temp left" false (Sys.file_exists (path ^ ".tmp"));
  (* Same for ENOSPC. *)
  let io = Faults.Io.create { Faults.Io.none with no_space = Some 1 } in
  (match Storage.write_atomic ~io ~path "third" with
  | () -> Alcotest.fail "no_space did not raise"
  | exception Faults.Io.No_space _ -> ());
  check_string "still intact" "first" (read_file path);
  rm_rf dir

(* --- journal ----------------------------------------------------------- *)

let events_fixture =
  [|
    Event.Alloc { site = 1; addr = 4096; size = 64; type_name = None };
    Event.Access { instr = 2; addr = 4096; size = 8; is_store = false };
    Event.Access { instr = 3; addr = 4104; size = 8; is_store = true };
    Event.Free { addr = 4096; site = Some 4 };
  |]

let test_journal_roundtrip () =
  let dir = tmpdir () in
  let path = Filename.concat dir "j" in
  let w = Journal.create path in
  Array.iter (Journal.append w) events_fixture;
  let crc = Journal.crc w in
  Journal.flush w;
  Journal.close w;
  (match Journal.recover path with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_int "count" 4 (Array.length r.Journal.events);
    check_int "crc" crc r.Journal.r_crc;
    check_bool "not truncated" false r.Journal.truncated;
    check_bool "events equal" true (r.Journal.events = events_fixture));
  (* Reopen for append, continuing the CRC. *)
  let w2 = Journal.create ~resume:crc path in
  Journal.append w2 (Event.Access { instr = 2; addr = 4096; size = 8; is_store = false });
  Journal.flush w2;
  Journal.close w2;
  (match Journal.recover ~at:4 path with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_int "count after append" 5 (Array.length r.Journal.events);
    check_int "crc at snapshot point" crc r.Journal.crc_at);
  rm_rf dir

(* A process killed right after creating a journal, before any flush,
   must leave a recoverable (empty) journal: the header is on disk the
   moment [create] returns. A daemon killed in that window used to leave
   an empty file its restart rejected forever ("bad header"). *)
let test_journal_header_durable_at_create () =
  let dir = tmpdir () in
  let path = Filename.concat dir "j" in
  let w = Journal.create path in
  Journal.append w events_fixture.(0);
  (match Journal.recover path with
  | Error e -> Alcotest.failf "unflushed fresh journal unrecoverable: %s" e
  | Ok r -> check_int "no durable events yet" 0 (Array.length r.Journal.events));
  Journal.flush w;
  check_int "bytes count the header" (String.length (read_file path)) (Journal.bytes w);
  Journal.close w;
  rm_rf dir

let test_journal_torn_tail () =
  let dir = tmpdir () in
  let path = Filename.concat dir "j" in
  let w = Journal.create path in
  Array.iter (Journal.append w) events_fixture;
  Journal.flush w;
  Journal.close w;
  let sound = read_file path in
  (* Simulate a write that died mid-line. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "A 12 34";
  close_out oc;
  (match Journal.recover path with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_bool "truncated" true r.Journal.truncated;
    check_int "sound events kept" 4 (Array.length r.Journal.events));
  (* Recovery physically truncated the file back to the sound prefix. *)
  check_string "file truncated" sound (read_file path);
  rm_rf dir

(* --- trace file truncation tolerance (satellite c) --------------------- *)

let test_trace_truncated_tail () =
  let path = Filename.temp_file "ormp_trace" ".trace" in
  let oc = open_out path in
  output_string oc "ormp-trace 1\nA 1 4096 8 0\nA 2 41";
  close_out oc;
  let warned = ref 0 in
  let count = ref 0 in
  (match
     Ormp_trace.Trace_file.replay ~on_truncated:(fun _ -> incr warned) path (fun _ ->
         incr count)
   with
  | Ok n ->
    check_int "events delivered" 1 n;
    check_int "sink saw them" 1 !count;
    check_int "warned once" 1 !warned
  | Error e -> Alcotest.fail ("rejected torn trace: " ^ e));
  (* A malformed line that IS newline-terminated is still an error. *)
  let oc = open_out path in
  output_string oc "ormp-trace 1\nA x y z w\nA 1 4096 8 0\n";
  close_out oc;
  check_bool "mid-file corruption still fatal" true
    (Result.is_error (Ormp_trace.Trace_file.replay ~on_truncated:(fun _ -> ()) path (fun _ -> ())));
  Sys.remove path

(* --- snapshot codec ---------------------------------------------------- *)

let test_snapshot_roundtrip () =
  (* Build a session mid-flight by hand: run a workload partway through the
     profilers, snapshot, encode, decode, and compare re-encodings. *)
  let program = Micro.linked_list ~nodes:16 ~sweeps:2 () in
  let whomp = Ormp_whomp.Whomp.collector () in
  let leap = Ormp_leap.Leap.collector () in
  let rasg = Seq_c.create () in
  let on_tuple tu =
    Ormp_whomp.Whomp.collect whomp tu;
    Ormp_leap.Leap.collect leap tu
  in
  let cdc = Ormp_core.Cdc.create ~site_name:(Printf.sprintf "site%d") ~on_tuple () in
  let sink = Ormp_core.Cdc.sink cdc in
  let n = ref 0 in
  ignore
    (Ormp_vm.Runner.run program (fun ev ->
         (match ev with
         | Event.Access { addr; _ } -> Seq_c.push rasg addr
         | _ -> ());
         sink ev;
         incr n));
  let dims =
    match Ormp_whomp.Whomp.collector_dims whomp with
    | [ (_, a); (_, b); (_, c); (_, d) ] -> (a, b, c, d)
    | _ -> Alcotest.fail "not four dims"
  in
  let snap =
    {
      Snapshot.position = !n;
      checkpoint = 3;
      journal_crc = 12345;
      rotations = 1;
      epochs =
        [
          {
            Snapshot.ep_index = 1;
            ep_dim = "instr";
            ep_file = "epoch-1-instr";
            ep_from = 0;
            ep_to = 100;
            ep_symbols = 42;
          };
        ];
      degradations = [ { Snapshot.dg_position = 7; dg_kind = "rotate"; dg_detail = "x" } ];
      cdc = Ormp_core.Cdc.state cdc;
      whomp = dims;
      rasg;
      leap = Ormp_leap.Leap.live leap;
    }
  in
  let payload = snapshot_payload snap in
  match decode_snapshot payload with
  | Error e -> Alcotest.fail e
  | Ok snap2 ->
    (* Structural equality via re-encoding: the decoded snapshot must
       serialize to the identical payload. *)
    check_string "re-encoding identical" payload (snapshot_payload snap2);
    check_int "position" snap.Snapshot.position snap2.Snapshot.position;
    check_int "journal_crc" snap.Snapshot.journal_crc snap2.Snapshot.journal_crc

let test_snapshot_seal_detects_corruption () =
  let dir = tmpdir () in
  let path = Filename.concat dir "snap" in
  let snap =
    {
      Snapshot.position = 0;
      checkpoint = 0;
      journal_crc = 0;
      rotations = 0;
      epochs = [];
      degradations = [];
      cdc =
        Ormp_core.Cdc.state
          (Ormp_core.Cdc.create ~site_name:string_of_int ~on_tuple:(fun _ -> ()) ());
      whomp = (Seq_c.create (), Seq_c.create (), Seq_c.create (), Seq_c.create ());
      rasg = Seq_c.create ();
      leap = Ormp_leap.Leap.live (Ormp_leap.Leap.collector ());
    }
  in
  Snapshot.save path snap;
  check_bool "valid snapshot loads" true (Result.is_ok (Snapshot.load path));
  (* Truncate: the CRC seal must reject it. *)
  let data = read_file path in
  let oc = open_out_bin path in
  output_string oc (String.sub data 0 (String.length data / 2));
  close_out oc;
  check_bool "truncated snapshot rejected" true (Result.is_error (Snapshot.load path));
  rm_rf dir

(* --- qcheck round-trips (satellite d) ----------------------------------- *)

let prop_sequitur_of_rules =
  QCheck.Test.make ~name:"sequitur rules round-trip" ~count:60
    QCheck.(list_of_size Gen.(int_range 0 200) (int_range 0 12))
    (fun syms ->
      let g = Seq_c.create () in
      List.iter (Seq_c.push g) syms;
      match Seq_c.of_rules (Seq_c.rules g) with
      | Error e -> QCheck.Test.fail_report e
      | Ok g2 ->
        Seq_c.rules g = Seq_c.rules g2
        && Seq_c.expand g = Seq_c.expand g2
        && Seq_c.grammar_size g = Seq_c.grammar_size g2)

let prop_compressor_state_resume =
  (* Splitting a point stream at an arbitrary index and crossing the split
     through state/of_state must equal the unsplit compressor — including
     the open descriptor and the discard summary. *)
  QCheck.Test.make ~name:"compressor state resume = uninterrupted" ~count:60
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 120) (pair (int_range 0 6) (int_range 0 40)))
        (int_range 0 119))
    (fun (points, cut) ->
      let cut = cut mod max 1 (List.length points) in
      let feed c pts = List.iter (fun (a, b) -> ignore (C.add c [| a; b |])) pts in
      let whole = C.create ~budget:3 ~dims:2 () in
      feed whole points;
      let first = C.create ~budget:3 ~dims:2 () in
      let rec split i = function
        | [] -> []
        | rest when i = cut -> rest
        | p :: rest ->
          ignore (C.add first [| fst p; snd p |]);
          split (i + 1) rest
      in
      let tail = split 0 points in
      let resumed = C.of_state (C.state first) in
      feed resumed tail;
      C.parts whole = C.parts resumed && C.total whole = C.total resumed)

let prop_leap_live_roundtrip =
  QCheck.Test.make ~name:"leap live state survives snapshot codec" ~count:30
    QCheck.(list_of_size Gen.(int_range 0 80) (pair (int_range 0 3) (int_range 0 30)))
    (fun accesses ->
      let leap = Ormp_leap.Leap.collector ~budget:2 () in
      List.iteri
        (fun t (instr, off) ->
          Ormp_leap.Leap.collect leap
            {
              Ormp_core.Tuple.instr;
              group = instr mod 2;
              obj = 0;
              offset = off;
              time = t;
              is_store = false;
            })
        accesses;
      let snap =
        {
          Snapshot.position = List.length accesses;
          checkpoint = 1;
          journal_crc = 0;
          rotations = 0;
          epochs = [];
          degradations = [];
          cdc =
            Ormp_core.Cdc.state
              (Ormp_core.Cdc.create ~site_name:string_of_int ~on_tuple:(fun _ -> ()) ());
          whomp = (Seq_c.create (), Seq_c.create (), Seq_c.create (), Seq_c.create ());
          rasg = Seq_c.create ();
          leap = Ormp_leap.Leap.live leap;
        }
      in
      match decode_snapshot (snapshot_payload snap) with
      | Error e -> QCheck.Test.fail_report e
      | Ok snap2 -> snapshot_payload snap = snapshot_payload snap2)

(* --- session run / resume ---------------------------------------------- *)

let session_options =
  { Session.default_options with checkpoint_every = 500; watch_every = 0 }

let run_reference ~workload ~options =
  let dir = tmpdir () in
  match Session.run ~options ~dir ~workload () with
  | Error e -> Alcotest.fail e
  | Ok oc -> (dir, oc)

let test_session_run_basic () =
  let dir, oc = run_reference ~workload:"linked_list" ~options:session_options in
  check_bool "events flowed" true (oc.Session.oc_position > 0);
  check_bool "checkpoints written" true (oc.Session.oc_checkpoints > 0);
  check_bool "whomp profile exists" true (Sys.file_exists (Filename.concat dir "whomp.profile"));
  (* The session's WHOMP output equals the standalone profiler's. *)
  (match Ormp_persist.Whomp_io.load (Filename.concat dir "whomp.profile") with
  | Error e -> Alcotest.fail e
  | Ok p ->
    let direct =
      Ormp_whomp.Whomp.profile (Ormp_workloads.Micro.linked_list ())
    in
    check_int "same collected" direct.Ormp_whomp.Whomp.collected p.Ormp_whomp.Whomp.collected;
    check_int "same omsg" (Ormp_whomp.Whomp.omsg_size direct) (Ormp_whomp.Whomp.omsg_size p));
  (match Session.status ~dir with
  | Error e -> Alcotest.fail e
  | Ok st ->
    check_bool "complete" true st.Session.st_complete;
    check_string "workload" "linked_list" st.Session.st_workload);
  rm_rf dir

let test_kill_and_resume_byte_identity () =
  (* The tentpole acceptance: kill at EVERY checkpoint boundary in turn;
     each resumed session must produce byte-identical profiles. *)
  let workload = "linked_list" in
  let ref_dir, ref_oc = run_reference ~workload ~options:session_options in
  let ref_bytes = profile_bytes ref_dir in
  let total_checkpoints = ref_oc.Session.oc_position / session_options.Session.checkpoint_every in
  check_bool "enough checkpoints to be interesting" true (total_checkpoints >= 3);
  for k = 1 to total_checkpoints do
    let dir = tmpdir () in
    let io = Faults.Io.create { Faults.Io.none with kill_at_checkpoint = Some k } in
    (match Session.run ~io ~options:session_options ~dir ~workload () with
    | Ok _ -> Alcotest.failf "kill at checkpoint %d did not fire" k
    | Error e -> Alcotest.failf "unexpected session error: %s" e
    | exception Faults.Io.Killed _ -> ());
    check_bool
      (Printf.sprintf "no final profile after kill %d" k)
      false
      (Sys.file_exists (Filename.concat dir "whomp.profile"));
    (match Session.resume ~dir () with
    | Error e -> Alcotest.failf "resume after kill %d: %s" k e
    | Ok oc ->
      check_int
        (Printf.sprintf "resumed from checkpoint %d position" k)
        (k * session_options.Session.checkpoint_every)
        (Option.value ~default:(-1) oc.Session.oc_resumed_from);
      check_int
        (Printf.sprintf "same position (kill %d)" k)
        ref_oc.Session.oc_position oc.Session.oc_position);
    let w, r, l = profile_bytes dir in
    let rw, rr, rl = ref_bytes in
    check_bool (Printf.sprintf "whomp bytes (kill %d)" k) true (w = rw);
    check_bool (Printf.sprintf "rasg bytes (kill %d)" k) true (r = rr);
    check_bool (Printf.sprintf "leap bytes (kill %d)" k) true (l = rl);
    rm_rf dir
  done;
  rm_rf ref_dir

let test_resume_discards_corrupt_snapshot () =
  let workload = "linked_list" in
  let ref_dir, _ = run_reference ~workload ~options:session_options in
  let ref_bytes = profile_bytes ref_dir in
  let dir = tmpdir () in
  let io = Faults.Io.create { Faults.Io.none with kill_at_checkpoint = Some 3 } in
  (match Session.run ~io ~options:session_options ~dir ~workload () with
  | exception Faults.Io.Killed _ -> ()
  | _ -> Alcotest.fail "kill did not fire");
  (* Corrupt the newest snapshot: resume must fall back to the older one
     and still converge to identical bytes. *)
  let snap3 = Filename.concat dir "snapshot-3" in
  check_bool "snapshot 3 exists" true (Sys.file_exists snap3);
  let data = read_file snap3 in
  let oc = open_out_bin snap3 in
  output_string oc (String.sub data 0 (String.length data - 10));
  close_out oc;
  (match Session.resume ~dir () with
  | Error e -> Alcotest.fail e
  | Ok oc ->
    check_int "fell back to checkpoint 2" 1000
      (Option.value ~default:(-1) oc.Session.oc_resumed_from));
  check_bool "bytes still identical" true (profile_bytes dir = ref_bytes);
  rm_rf dir;
  rm_rf ref_dir

(* A journal line the pipeline rejects — here an Alloc overlapping a live
   object, parseable but impossible — must not crash resume: recovery
   returns an error, and the VM-driven resume starts over from scratch
   and still converges to the uninterrupted run's bytes. *)
let test_resume_survives_poisoned_journal () =
  let workload = "linked_list" in
  let ref_dir, _ = run_reference ~workload ~options:session_options in
  let dir = tmpdir () in
  let io = Faults.Io.create { Faults.Io.none with kill_at_checkpoint = Some 1 } in
  (match Session.run ~io ~options:session_options ~dir ~workload () with
  | exception Faults.Io.Killed _ -> ()
  | _ -> Alcotest.fail "kill did not fire");
  let journal = Filename.concat dir "journal.trace" in
  let live = Hashtbl.create 64 in
  (match Journal.recover journal with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Array.iter
      (function
        | Event.Alloc { addr; _ } as ev -> Hashtbl.replace live addr ev
        | Event.Free { addr; _ } -> Hashtbl.remove live addr
        | Event.Access _ -> ())
      r.Journal.events);
  let victim =
    match Hashtbl.to_seq_values live |> List.of_seq |> List.sort compare with
    | ev :: _ -> ev
    | [] -> Alcotest.fail "no live object at the kill point"
  in
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 journal (fun oc ->
      Out_channel.output_string oc (Ormp_trace.Trace_file.event_line victim));
  (match Session.resume ~dir () with
  | Error e -> Alcotest.failf "resume over a poisoned journal: %s" e
  | Ok oc -> check_bool "started over" true (oc.Session.oc_resumed_from = None));
  check_bool "bytes identical" true (profile_bytes dir = profile_bytes ref_dir);
  rm_rf dir;
  rm_rf ref_dir

let test_session_degrades_on_journal_enospc () =
  let dir = tmpdir () in
  (* Fail the 100th journal write: the session must finish anyway, with
     journaling and checkpointing off and the degradation on record. *)
  let io = Faults.Io.create { Faults.Io.none with no_space = Some 100 } in
  (match Session.run ~io ~options:session_options ~dir ~workload:"linked_list" () with
  | Error e -> Alcotest.fail e
  | Ok oc ->
    check_bool "completed" true (Sys.file_exists (Filename.concat dir "whomp.profile"));
    check_bool "degradation recorded" true
      (List.exists
         (fun d -> d.Snapshot.dg_kind = "journal-off")
         oc.Session.oc_degradations));
  rm_rf dir

let test_session_rotation_epochs () =
  let dir = tmpdir () in
  let options =
    {
      Session.default_options with
      watch_every = 500;
      grammar_budget = 300;
      max_streams = 2;
    }
  in
  (match Session.run ~options ~dir ~workload:"matrix" () with
  | Error e -> Alcotest.fail e
  | Ok oc ->
    check_bool "rotated at least once" true (oc.Session.oc_rotations >= 1);
    check_int "five epoch files per rotation" (oc.Session.oc_rotations * 5)
      (List.length oc.Session.oc_epochs);
    List.iter
      (fun e ->
        let path = Filename.concat dir e.Snapshot.ep_file in
        check_bool ("epoch file " ^ e.Snapshot.ep_file) true (Sys.file_exists path);
        match Storage.load_sealed path with
        | Error err -> Alcotest.fail err
        | Ok _ -> ())
      oc.Session.oc_epochs;
    (* The LEAP stream cap must surface as dropped accounting in the final
       profile while keeping the collected invariant intact. *)
    match Ormp_persist.Leap_io.load (Filename.concat dir "leap.profile") with
    | Error e -> Alcotest.fail e
    | Ok p ->
      check_bool "streams were capped" true (p.Ormp_leap.Leap.dropped_streams > 0);
      match Ormp_check.Verify.leap_profile p with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("capped profile fails verification: " ^ e));
  rm_rf dir

(* --- supervisor and suite ---------------------------------------------- *)

let test_supervise_completed_and_failed () =
  (match Supervise.run (fun ~should_stop:_ -> 41 + 1) with
  | Supervise.Completed v -> check_int "value" 42 v
  | _ -> Alcotest.fail "did not complete");
  match
    Supervise.run ~retries:2 ~backoff_s:0.001 (fun ~should_stop:_ ->
        failwith "boom")
  with
  | Supervise.Failed f ->
    check_int "three attempts" 3 f.Supervise.attempts;
    check_bool "error preserved" true
      (String.length f.Supervise.error > 0
      && String.lowercase_ascii f.Supervise.error <> "")
  | _ -> Alcotest.fail "did not fail"

let test_supervise_timeout () =
  match
    Supervise.run ~timeout_s:0.2 ~retries:3 (fun ~should_stop ->
        while not (should_stop ()) do
          Unix.sleepf 0.005
        done;
        raise Supervise.Cancelled)
  with
  | Supervise.Timed_out t -> check_int "no retry on timeout" 1 t.attempts
  | _ -> Alcotest.fail "did not time out"

let test_suite_degraded () =
  (* One workload crash-injected, one hang-injected: the suite exits with a
     complete report, healthy workloads profiled alongside. *)
  let spec = Ormp_workloads.Registry.spec in
  let crash_name = (List.nth spec 0).Ormp_workloads.Registry.name in
  let hang_name = (List.nth spec 1).Ormp_workloads.Registry.name in
  let out_dir = tmpdir () in
  let report =
    Suite.run ~timeout_s:5.0 ~retries:1 ~backoff_s:0.001
      ~faults:[ (crash_name, Suite.Crash); (hang_name, Suite.Hang) ]
      ~out_dir ()
  in
  check_int "one failure" 1 report.Suite.rp_failed;
  check_int "one timeout" 1 report.Suite.rp_timed_out;
  check_int "rest completed" (List.length spec - 2) report.Suite.rp_completed;
  List.iter
    (fun e ->
      match (e.Suite.en_fault, e.Suite.en_outcome) with
      | Some Suite.Crash, Supervise.Failed f ->
        check_int "crash retried once" 2 f.Supervise.attempts;
        check_bool "injected crash named" true
          (String.length f.Supervise.error > 0)
      | Some Suite.Crash, _ -> Alcotest.fail "crash workload did not fail"
      | Some Suite.Hang, Supervise.Timed_out _ -> ()
      | Some Suite.Hang, _ -> Alcotest.fail "hang workload did not time out"
      | None, Supervise.Completed s ->
        check_bool "healthy profile saved" true
          (Sys.file_exists (Filename.concat out_dir (e.Suite.en_workload ^ ".whomp")));
        check_bool "collected something" true (s.Suite.sc_collected > 0)
      | None, _ -> Alcotest.failf "healthy workload %s did not complete" e.Suite.en_workload)
    report.Suite.rp_entries;
  (* The report serializes. *)
  let sexp = Suite.report_to_sexp report in
  check_bool "report nonempty" true (String.length (Ormp_util.Sexp.to_string sexp) > 0);
  rm_rf out_dir

(* --- runner crash flush (satellite b) ----------------------------------- *)

let test_runner_flushes_on_crash () =
  let seen = ref 0 in
  let batch =
    Ormp_trace.Batch.create
      ~on_chunk:(fun c -> seen := !seen + c.Ormp_trace.Batch.len)
      ~on_event:(fun _ -> incr seen)
      ()
  in
  let program = Faults.crashing (Micro.array_stride ~elems:64 ~sweeps:1 ()) in
  (match Ormp_vm.Runner.run_batched program batch with
  | _ -> Alcotest.fail "crash did not propagate"
  | exception Faults.Injected_crash _ -> ());
  (* Events buffered before the crash were flushed, not lost. *)
  check_bool "buffered events delivered" true (!seen > 64)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_session"
    [
      ( "crc32",
        [ tc "vectors" test_crc32_vectors ] );
      ( "storage",
        [
          tc "seal/unseal" test_seal_unseal;
          tc "atomic write under faults" test_atomic_write_faults;
        ] );
      ( "journal",
        [
          tc "roundtrip + resume append" test_journal_roundtrip;
          tc "torn tail truncation" test_journal_torn_tail;
          tc "header durable at create" test_journal_header_durable_at_create;
        ] );
      ( "trace",
        [ tc "truncated trailing record tolerated" test_trace_truncated_tail ] );
      ( "snapshot",
        [
          tc "roundtrip" test_snapshot_roundtrip;
          tc "seal detects corruption" test_snapshot_seal_detects_corruption;
          QCheck_alcotest.to_alcotest prop_sequitur_of_rules;
          QCheck_alcotest.to_alcotest prop_compressor_state_resume;
          QCheck_alcotest.to_alcotest prop_leap_live_roundtrip;
        ] );
      ( "session",
        [
          tc "run writes profiles and report" test_session_run_basic;
          tc "kill + resume is byte-identical at every checkpoint"
            test_kill_and_resume_byte_identity;
          tc "resume survives a corrupt newest snapshot" test_resume_discards_corrupt_snapshot;
          tc "resume survives a poisoned journal" test_resume_survives_poisoned_journal;
          tc "journal ENOSPC degrades gracefully" test_session_degrades_on_journal_enospc;
          tc "watchdog rotates epochs and caps streams" test_session_rotation_epochs;
        ] );
      ( "supervise",
        [
          tc "completed and failed" test_supervise_completed_and_failed;
          tc "timeout" test_supervise_timeout;
          tc "runner flushes batch on crash" test_runner_flushes_on_crash;
          tc "degraded suite" test_suite_degraded;
        ] );
    ]
