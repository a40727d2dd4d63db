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
module Batch = Ormp_trace.Batch

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

open Files

(* A snapshot's payload as [Snapshot.save] renders it, and its decoding. *)
let snapshot_payload = Ormp_util.Sexp.Writer.render Snapshot.write

let decode_snapshot payload = Ormp_util.Sexp.Reader.run payload Snapshot.read

(* --- CRC-32 ------------------------------------------------------------ *)

let test_crc32_vectors () =
  (* The IEEE/zlib check value. *)
  check_int "123456789" 0xCBF43926 (Crc32.string "123456789");
  check_int "empty" 0 (Crc32.string "");
  check_int "incremental = whole"
    (Crc32.string "hello world")
    (Crc32.update (Crc32.update 0 "hello ") "world")

(* The bytewise table loop the slicing-by-4 CRC replaced: the oracle. *)
let bytewise_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let bytewise crc s off len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c := bytewise_table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* Every start alignment 0..7 and every length 0..64, from a random
   running CRC: the four-byte steps and the byte tail must agree with
   the oracle wherever they split. *)
let prop_crc32_slicing_equals_bytewise =
  QCheck.Test.make ~name:"update_sub = bytewise oracle" ~count:50
    QCheck.(pair (string_of_size (Gen.return 72)) (int_bound 0xFFFFFFFF))
    (fun (s, crc) ->
      let b = Bytes.of_string s in
      let ok = ref true in
      for off = 0 to 7 do
        for len = 0 to 64 do
          if Crc32.update_sub crc b off len <> bytewise crc s off len then ok := false
        done
      done;
      !ok && Crc32.string s = bytewise 0 s 0 (String.length s))

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
    check_int "count" 4 r.Journal.count;
    check_int "crc" crc r.Journal.r_crc;
    check_bool "not truncated" false r.Journal.truncated;
    check_bool "events equal" true (r.Journal.tail = events_fixture));
  (* Reopen for append, continuing the CRC. *)
  let w2 =
    match Journal.recover path with
    | Ok r -> Journal.create ~resume:r path
    | Error e -> Alcotest.fail e
  in
  Journal.append w2 (Event.Access { instr = 2; addr = 4096; size = 8; is_store = false });
  Journal.flush w2;
  Journal.close w2;
  (match Journal.recover ~at:4 path with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_int "count after append" 5 r.Journal.count;
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
  | Ok r -> check_int "no durable events yet" 0 r.Journal.count);
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
    check_int "sound events kept" 4 r.Journal.count;
    (* Recovery only reads; reopening for append truncates the file
       back to the sound prefix. *)
    check_string "file untouched by recovery" (sound ^ "A 12 34") (read_file path);
    Journal.close (Journal.create ~resume:r path));
  check_string "file truncated" sound (read_file path);
  rm_rf dir

(* The serving path appends a line per event: rendered in place, one
   [output], the CRC over the same bytes. Neither [append] nor
   [append_chunk] may allocate per line (the Gc counters' own boxed
   floats and the chunk buffer's one growth fit in the bound), and the two
   must write the same bytes and CRC. *)
let test_journal_appends_do_not_allocate () =
  let dir = tmpdir () in
  let n = 10_000 in
  let big i = if i land 1 = 0 then max_int - i else min_int + i in
  let chunk =
    {
      Batch.instr = Array.init n (fun i -> i mod 97);
      addr = Array.init n big;
      size = Array.init n (fun i -> if i mod 5 = 0 then -8 else 8);
      store = Array.init n (fun i -> i land 1);
      len = n;
    }
  in
  let events =
    Array.init n (fun i ->
        Event.Access
          {
            instr = chunk.Batch.instr.(i);
            addr = chunk.Batch.addr.(i);
            size = chunk.Batch.size.(i);
            is_store = chunk.Batch.store.(i) <> 0;
          })
  in
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let per_event = Journal.create (Filename.concat dir "per-event") in
  let appends = minor_words (fun () -> Array.iter (Journal.append per_event) events) in
  let chunked = Journal.create (Filename.concat dir "chunked") in
  let chunks =
    minor_words (fun () ->
        let off = ref 0 in
        while !off < n do
          let len = min 512 (n - !off) in
          Journal.append_chunk chunked chunk ~off:!off ~len;
          off := !off + len
        done)
  in
  check_bool (Printf.sprintf "10k appends: %.0f minor words" appends) true (appends <= 1024.0);
  check_bool (Printf.sprintf "10k chunked: %.0f minor words" chunks) true (chunks <= 1024.0);
  check_int "same CRC" (Journal.crc per_event) (Journal.crc chunked);
  Journal.close per_event;
  Journal.close chunked;
  check_bool "same bytes" true
    (read_file (Filename.concat dir "per-event") = read_file (Filename.concat dir "chunked"));
  rm_rf dir

let micro_events ?(seed = 1) name =
  let buf = Ormp_util.Vec.create () in
  let config = { Ormp_vm.Config.default with seed } in
  ignore (Ormp_vm.Runner.run ~config (List.assoc name Micro.all) (Ormp_util.Vec.push buf));
  Ormp_util.Vec.to_array buf

let file_size path = (Unix.stat path).Unix.st_size

(* A restored session's journal size counts the journal it reopened:
   the daemon's Stats rows and heartbeats read it, and a resumed writer
   used to start again from 0. *)
let test_journal_bytes_survive_restore () =
  let dir = tmpdir () in
  let path = Filename.concat dir Session.journal_file in
  let events = micro_events "linked_list" in
  let options = Session.default_options and workload = "linked_list" in
  let s = Session.start ~options ~dir ~workload () in
  Array.iter (Session.append s) (Array.sub events 0 100);
  Session.flush s;
  check_int "fresh session" (file_size path) (Session.journal_bytes s);
  Session.close s;
  (match Session.restore ~options ~dir ~workload () with
  | Error e -> Alcotest.fail e
  | Ok s ->
    check_int "restored at 100" 100 (Session.position s);
    check_int "restored session" (file_size path) (Session.journal_bytes s);
    Array.iter (Session.append s) (Array.sub events 100 10);
    Session.flush s;
    check_int "10 events later" (file_size path) (Session.journal_bytes s);
    Session.close s);
  rm_rf dir

(* --- the chunk path = the per-event path ------------------------------- *)

(* Every file a session leaves, by name; the heartbeat file holds wall
   clock rates, so only its line count is compared. *)
let session_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f ->
         let body = read_file (Filename.concat dir f) in
         if f = Session.heartbeat_file then
           (f, string_of_int (List.length (String.split_on_char '\n' body)))
         else (f, body))

(* Trigger cadences that fall inside chunks (primes, well below a chunk
   run of accesses), each alone and all together: checkpoints, the
   rotating watchdog, heartbeats. *)
let cadences =
  [|
    (97, 0, 0);
    (0, 61, 0);
    (0, 0, 37);
    (113, 71, 53);
  |]

(* A random micro stream through two sessions: one [append] per event,
   and one [append_chunk] per random run of accesses, each run arriving
   in a chunk that repeats up to 5 accesses already applied (the
   duplicated prefix a retried wire frame carries, skipped with [~off])
   and carries junk past its [len]. Journal bytes and CRC, snapshots,
   epoch files, report and profiles must all be equal — under no fault,
   and under ENOSPC or a torn write at a random journal write. *)
let prop_append_chunk_equals_append =
  QCheck.Test.make ~name:"append_chunk = per-event append" ~count:16
    QCheck.(
      quad
        (int_bound (List.length Micro.all - 1))
        (int_range 1 10_000) (int_bound (Array.length cadences - 1))
        (pair bool (int_bound 2)))
    (fun (w, seed, cadence, (pooled, fault)) ->
      let name = fst (List.nth Micro.all w) in
      let events = micro_events ~seed name in
      let n = Array.length events in
      let ckpt, watch, hb = cadences.(cadence) in
      let options =
        {
          Session.default_options with
          checkpoint_every = ckpt;
          watch_every = watch;
          grammar_budget = (if watch > 0 then 200 else 0);
          keep = 0;
        }
      in
      let fault_at = 1 + (seed mod max 1 n) in
      let io () =
        match fault with
        | 0 -> None
        | 1 -> Some (Faults.Io.create { Faults.Io.none with no_space = Some fault_at })
        | _ -> Some (Faults.Io.create { Faults.Io.none with torn_write = Some fault_at })
      in
      let run ?pool dir feed =
        let s =
          Session.start ?io:(io ()) ~heartbeat_every:hb ?pool ~options ~dir ~workload:name ()
        in
        feed s;
        ignore (Session.finish s ~elapsed:0.0)
      in
      let per_event = tmpdir () and chunked = tmpdir () in
      let rng = Ormp_util.Prng.create ~seed in
      let by_chunks s =
        (* [run_start]: where the current run of accesses began *)
        let run_start = ref 0 and next = ref 0 in
        let flush upto =
          if upto > !next then begin
            let dup = Ormp_util.Prng.int rng (1 + min 5 (!next - !run_start)) in
            let first = !next - dup and len = upto - !next in
            let junk = Ormp_util.Prng.int rng 4 in
            let lane f =
              Array.init (dup + len + junk) (fun i ->
                  if i < dup + len then
                    match events.(first + i) with
                    | Event.Access { instr; addr; size; is_store } -> f instr addr size is_store
                    | _ -> assert false
                  else -1)
            in
            let chunk =
              {
                Batch.instr = lane (fun i _ _ _ -> i);
                addr = lane (fun _ a _ _ -> a);
                size = lane (fun _ _ z _ -> z);
                store = lane (fun _ _ _ st -> Bool.to_int st);
                len = dup + len;
              }
            in
            Session.append_chunk s chunk ~off:dup ~len;
            next := upto
          end
        in
        let cap = ref (1 + Ormp_util.Prng.int rng 40) in
        Array.iteri
          (fun i ev ->
            match ev with
            | Event.Access _ ->
              if i + 1 - !next >= !cap then begin
                flush (i + 1);
                cap := 1 + Ormp_util.Prng.int rng 40
              end
            | Event.Alloc _ | Event.Free _ ->
              flush i;
              Session.append s ev;
              next := i + 1;
              run_start := i + 1)
          events;
        flush n
      in
      let both pool =
        run ?pool per_event (fun s -> Array.iter (Session.append s) events);
        run ?pool chunked by_chunks
      in
      Ormp_session.Pipeline.with_pool ~jobs:(if pooled then 2 else 1) both;
      let crc dir =
        match Journal.recover (Filename.concat dir Session.journal_file) with
        | Ok r -> r.Journal.r_crc
        | Error e -> QCheck.Test.fail_reportf "journal unreadable: %s" e
      in
      let same = session_files per_event = session_files chunked && crc per_event = crc chunked in
      rm_rf per_event;
      rm_rf chunked;
      same)

(* --- recovery = the parent's algorithm ------------------------------- *)

(* Recovery as it was before lines were read in one syntax, kept here as
   the oracle: the whole file split into lines, every complete line
   parsed by the legacy parser, the CRC re-derived through the legacy
   renderer; an unterminated final piece is torn. *)
let legacy_recover ~at data =
  let h = String.index data '\n' in
  let pieces = String.split_on_char '\n' (String.sub data (h + 1) (String.length data - h - 1)) in
  let n = List.length pieces in
  let complete = List.filteri (fun i _ -> i < n - 1) pieces in
  let torn = List.nth pieces (n - 1) in
  let events =
    List.map
      (fun l -> match Trace_legacy.parse_line l with Ok ev -> ev | Error e -> failwith e)
      complete
  in
  let crcs =
    List.rev
      (List.fold_left
         (fun acc ev -> Crc32.update (List.hd acc) (Trace_legacy.event_line ev) :: acc)
         [ 0 ] events)
  in
  let count = List.length events in
  if count < at then None
  else
    Some
      ( Array.of_list (List.filteri (fun i _ -> i >= at) events),
        count,
        List.nth crcs at,
        List.nth crcs count,
        torn )

(* Journals the writer produced for random Micro workloads, each with a
   random torn tail (a cut line, or none) and a random [at]: recovery
   matches the oracle, leaves the file as it is, and reopening truncates
   exactly the torn tail. *)
let prop_recover_equals_legacy =
  QCheck.Test.make ~name:"recover = legacy recovery" ~count:30
    QCheck.(quad (int_bound (List.length Micro.all - 1)) (int_range 1 10_000) (int_bound 1000) (int_bound 1000))
    (fun (w, seed, at_pick, cut_pick) ->
      let events = micro_events ~seed (fst (List.nth Micro.all w)) in
      let dir = tmpdir () in
      let path = Filename.concat dir "j" in
      let j = Journal.create path in
      Array.iter (Journal.append j) events;
      Journal.close j;
      let sound = read_file path in
      let line = Ormp_trace.Trace_file.event_line events.(cut_pick mod Array.length events) in
      let torn = String.sub line 0 (cut_pick mod (String.length line - 1)) in
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
          output_string oc torn);
      let data = read_file path in
      let at = at_pick mod (Array.length events + 3) in
      let ok =
        match (Journal.recover ~at path, legacy_recover ~at data) with
        | Error _, None -> read_file path = data
        | Ok r, Some (tail, count, crc_at, crc, want_torn) ->
          r.Journal.tail = tail && r.Journal.count = count && r.Journal.crc_at = crc_at
          && r.Journal.r_crc = crc
          && r.Journal.truncated = (want_torn <> "")
          && want_torn = torn
          && r.Journal.sound = String.length sound
          && read_file path = data
          &&
          (Journal.close (Journal.create ~resume:r path);
           read_file path = sound)
        | Ok _, None | Error _, Some _ -> false
      in
      rm_rf dir;
      ok)

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
      match Seq_c.of_rules ~bound:max_int (Seq_c.rules g) with
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
      C.lmads whole = C.lmads resumed
      && C.summary whole = C.summary resumed
      && C.discarded whole = C.discarded resumed
      && C.total whole = C.total resumed)

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

(* [status] reads a snapshot's seal and leading fields only: it reports a
   sealed snapshot whose body [Snapshot.load] refuses. *)
let test_status_reads_headers () =
  let dir, _ = run_reference ~workload:"linked_list" ~options:session_options in
  let newest =
    Sys.readdir dir |> Array.to_list
    |> List.filter (String.starts_with ~prefix:"snapshot-")
    |> List.sort (fun a b -> compare (String.length b, b) (String.length a, a))
    |> List.hd
  in
  let path = Filename.concat dir newest in
  let snap = match Snapshot.load path with Ok s -> s | Error e -> Alcotest.fail e in
  let payload = Result.get_ok (Storage.unseal (read_file path)) in
  (* Sealed afresh, cut inside the first field after the header. *)
  let marker = "(rotations" in
  let rec cut i = if String.sub payload i (String.length marker) = marker then i else cut (i + 1) in
  Storage.write_atomic ~path (Storage.seal (String.sub payload 0 (cut 0) ^ marker));
  check_bool "the body no longer loads" true (Result.is_error (Snapshot.load path));
  (match Snapshot.load_header path with
  | Error e -> Alcotest.fail e
  | Ok h -> check_int "header position" snap.Snapshot.position h.Snapshot.h_position);
  (match Session.status ~dir with
  | Error e -> Alcotest.fail e
  | Ok st ->
    check_bool "status reports the sealed header" true
      (st.Session.st_snapshot = Some (snap.Snapshot.checkpoint, snap.Snapshot.position)));
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

(* A resume re-executes the prefix its session already holds and checks it
   against the journal. Here the prefix ends inside a lane chunk and the
   manifest's heap base moved after the kill, so every re-executed address
   differs: the resume must refuse, naming the prefix. *)
let test_resume_refuses_a_diverged_prefix () =
  let workload = "linked_list" in
  let every = session_options.Session.checkpoint_every in
  let events =
    let buf = Ormp_util.Vec.create () in
    ignore (Ormp_vm.Runner.run (List.assoc workload Micro.all) (Ormp_util.Vec.push buf));
    Ormp_util.Vec.to_array buf
  in
  (* Position [p] is inside a chunk when events [p - 1] and [p] are
     accesses and [p] is no multiple of the capacity into their run. *)
  let rec run_start i = if i > 0 && Event.is_access events.(i - 1) then run_start (i - 1) else i in
  let inside_chunk p =
    Event.is_access events.(p - 1)
    && Event.is_access events.(p)
    && (p - run_start p) mod Batch.default_capacity <> 0
  in
  let rec pick k =
    if (k + 1) * every >= Array.length events then Alcotest.fail "no checkpoint inside a chunk"
    else if inside_chunk (k * every) then k
    else pick (k + 1)
  in
  let k = pick 1 in
  let dir = tmpdir () in
  let io = Faults.Io.create { Faults.Io.none with kill_at_checkpoint = Some k } in
  (match Session.run ~io ~options:session_options ~dir ~workload () with
  | exception Faults.Io.Killed _ -> ()
  | _ -> Alcotest.fail "kill did not fire");
  let manifest = Filename.concat dir "manifest" in
  let rec shift = function
    | Ormp_util.Sexp.List [ Atom "heap-base"; Atom n ] ->
      Ormp_util.Sexp.List [ Atom "heap-base"; Atom (string_of_int (int_of_string n + 4096)) ]
    | List l -> List (List.map shift l)
    | a -> a
  in
  (match Load_legacy.S.load manifest with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Out_channel.with_open_bin manifest (fun oc ->
        output_string oc (Ormp_util.Sexp.to_string (shift m) ^ "\n")));
  (match Session.resume ~dir () with
  | Ok _ -> Alcotest.fail "resumed over a diverged prefix"
  | Error e ->
    let prefix = Printf.sprintf "[0,%d)" (k * every) in
    check_bool
      (Printf.sprintf "%S names the prefix %s" e prefix)
      true
      (List.exists (String.equal prefix) (String.split_on_char ' ' e)));
  check_bool "no final profile" false (Sys.file_exists (Filename.concat dir "whomp.profile"));
  rm_rf dir

(* Kill a session at checkpoint 3 and [damage] its newest snapshot:
   resume must fall back to the older one and still converge to the
   uninterrupted run's bytes. *)
let resume_past_damaged_snapshot damage =
  let workload = "linked_list" in
  let ref_dir, _ = run_reference ~workload ~options:session_options in
  let ref_bytes = profile_bytes ref_dir in
  let dir = tmpdir () in
  let io = Faults.Io.create { Faults.Io.none with kill_at_checkpoint = Some 3 } in
  (match Session.run ~io ~options:session_options ~dir ~workload () with
  | exception Faults.Io.Killed _ -> ()
  | _ -> Alcotest.fail "kill did not fire");
  let snap3 = Filename.concat dir "snapshot-3" in
  check_bool "snapshot 3 exists" true (Sys.file_exists snap3);
  let data = damage (read_file snap3) in
  let oc = open_out_bin snap3 in
  output_string oc data;
  close_out oc;
  check_bool "damaged snapshot refused" true (Result.is_error (Snapshot.load snap3));
  (match Session.resume ~dir () with
  | Error e -> Alcotest.fail e
  | Ok oc ->
    check_int "fell back to checkpoint 2" 1000
      (Option.value ~default:(-1) oc.Session.oc_resumed_from));
  check_bool "bytes still identical" true (profile_bytes dir = ref_bytes);
  rm_rf dir;
  rm_rf ref_dir

let test_resume_discards_corrupt_snapshot () =
  resume_past_damaged_snapshot (fun data -> String.sub data 0 (String.length data - 10))

(* A payload edited and resealed passes its seal, so the reader's checks
   are what refuse it, before a restore could raise on it. Each edit
   rewrites the first flat list [(name ...)] its function takes: a span
   [(spans a b ...)] with a < b reversed, a group's population bumped,
   and the second group given the first one's key. *)
let test_resume_discards_resealed_snapshot () =
  let resealed name f data =
    let payload = match Storage.unseal data with Ok p -> p | Error e -> Alcotest.fail e in
    let rec rewrite from =
      let i = String.index_from payload from '(' in
      let close = String.index_from payload i ')' in
      match String.split_on_char ' ' (String.sub payload (i + 1) (close - i - 1)) with
      | n :: args when n = name && f args <> None ->
        String.sub payload 0 (i + 1)
        ^ String.concat " " (name :: Option.get (f args))
        ^ String.sub payload close (String.length payload - close)
      | _ -> rewrite (i + 1)
    in
    Storage.seal (rewrite 0)
  in
  let first_site = ref None in
  List.iter resume_past_damaged_snapshot
    [
      resealed "spans" (function
        | a :: b :: rest when int_of_string a < int_of_string b -> Some (b :: a :: rest)
        | _ -> None);
      resealed "group" (function
        | [ site; ty; population ] ->
          Some [ site; ty; string_of_int (int_of_string population + 1) ]
        | _ -> None);
      resealed "group" (function
        | [ site; ty; population ] -> (
          match !first_site with
          | None ->
            first_site := Some site;
            None
          | Some first -> Some [ first; ty; population ])
        | _ -> None);
    ]

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
      r.Journal.tail);
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

(* Recovery parses only the tail: a line inside the prefix a snapshot
   covers is checked by the CRC alone, so a poisoned prefix fails the
   snapshot's CRC, and restore falls back until the full parse fails. *)
let test_restore_rejects_unparseable_prefix () =
  let workload = "linked_list" in
  let dir = tmpdir () in
  let io = Faults.Io.create { Faults.Io.none with kill_at_checkpoint = Some 2 } in
  (match Session.run ~io ~options:session_options ~dir ~workload () with
  | exception Faults.Io.Killed _ -> ()
  | _ -> Alcotest.fail "kill did not fire");
  let path = Filename.concat dir Session.journal_file in
  let data = read_file path in
  (* Line 3 (the second event) becomes a line no writer produces. *)
  let l2 = String.index_from data (String.index data '\n' + 1) '\n' + 1 in
  let l3 = String.index_from data l2 '\n' in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub data 0 l2);
      output_string oc "A 1 2 3";
      output_string oc (String.sub data l3 (String.length data - l3)));
  (match Journal.recover ~at:1000 path with
  | Ok r -> check_int "the prefix is not parsed" 1000 (r.Journal.count - Array.length r.Journal.tail)
  | Error e -> Alcotest.fail e);
  (match Session.restore ~options:session_options ~dir ~workload () with
  | Ok _ -> Alcotest.fail "restored over an unparseable prefix"
  | Error _ -> ());
  rm_rf dir

(* [Session.status] on a running session only reads. The writer's
   channel flushes 64 KiB at a time, so the file on disk ends mid-line
   while the run goes on; a status that cut that "torn" tail off used to
   corrupt the journal once the writer's next flush appended the rest of
   the line. *)
let test_status_leaves_a_live_journal_alone () =
  let workload = "linked_list" in
  let ref_dir, _ = run_reference ~workload ~options:Session.default_options in
  let unpolled = read_file (Filename.concat ref_dir Session.journal_file) in
  let dir = tmpdir () in
  let path = Filename.concat dir Session.journal_file in
  Storage.write_atomic ~path:(Filename.concat dir "manifest")
    (read_file (Filename.concat ref_dir "manifest"));
  let events = micro_events workload in
  let s = Session.start ~options:Session.default_options ~dir ~workload () in
  let i = ref 0 in
  while Session.journal_bytes s < 70_000 do
    Session.append s events.(!i);
    incr i
  done;
  let on_disk = read_file path in
  check_bool "the channel flushed part of the journal, ending mid-line" true
    (String.length on_disk > String.length Ormp_trace.Trace_file.header + 1
    && String.length on_disk < Session.journal_bytes s
    && on_disk.[String.length on_disk - 1] <> '\n');
  (match Session.status ~dir with
  | Error e -> Alcotest.fail e
  | Ok st -> check_bool "status counts the flushed lines" true (st.Session.st_journal <> None));
  Array.iter (Session.append s) (Array.sub events !i (Array.length events - !i));
  Session.close s;
  check_bool "journal = the unpolled run's" true (read_file path = unpolled);
  (match Journal.recover path with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_int "every event recovered" (Array.length events) r.Journal.count;
    check_bool "no torn tail" false r.Journal.truncated);
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
        let read r =
          Ormp_persist.Grammar_io.read r ~length:(e.Snapshot.ep_to - e.Snapshot.ep_from)
            ~exact:false
        in
        match Storage.load_sealed path read with
        | Error err -> Alcotest.fail err
        | Ok (dim, _) -> check_string "epoch dimension" e.Snapshot.ep_dim dim)
      oc.Session.oc_epochs;
    (* The LEAP stream cap must surface as dropped accounting in the final
       profile while keeping the collected invariant intact. *)
    match Ormp_persist.Leap_io.load (Filename.concat dir "leap.profile") with
    | Error e -> Alcotest.fail e
    | Ok p ->
      check_bool "streams were capped" true (p.Ormp_leap.Leap.dropped_streams > 0);
      (match Ormp_check.Verify.leap_profile p with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("capped profile fails verification: " ^ e));
      (* The rotated grammars hold the last epoch only, and the counts in
         their profiles say so. *)
      let verified file load verify =
        match Result.bind (load (Filename.concat dir file)) verify with
        | Ok () -> ()
        | Error e -> Alcotest.failf "rotated %s fails verification: %s" file e
      in
      verified "whomp.profile" Ormp_persist.Whomp_io.load Ormp_check.Verify.whomp_profile;
      verified "rasg.profile" Ormp_persist.Rasg_io.load (fun _ -> Ok ()));
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

(* A task that only allocates and frees never fills a chunk of accesses:
   the suite's guard must poll on object events too, or the supervisor
   waits on the domain until the task ends (never, for a hang). The churn
   is bounded, at ~10x the deadline, so a guard that misses it fails the
   test instead of hanging it. *)
let test_guard_cancels_an_object_only_hang () =
  let module E = Ormp_vm.Engine in
  let program =
    Ormp_vm.Program.make ~name:"object-churn" ~description:"500k allocs and frees" (fun e ->
        let site = E.instr e ~name:"churn.alloc" Ormp_trace.Instr.Alloc_site in
        let free_site = E.instr e ~name:"churn.free" Ormp_trace.Instr.Free_site in
        for _ = 1 to 500_000 do
          E.free e ~site:free_site (E.alloc e ~site 16)
        done)
  in
  match
    Supervise.run ~timeout_s:0.02 (fun ~should_stop ->
        Ormp_session.Pipeline.run ~wrap:(Suite.guard should_stop) program)
  with
  | Supervise.Timed_out t -> check_int "one attempt" 1 t.attempts
  | _ -> Alcotest.fail "object-only hang was not cancelled"

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
        [
          tc "vectors" test_crc32_vectors;
          QCheck_alcotest.to_alcotest prop_crc32_slicing_equals_bytewise;
        ] );
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
          tc "appends do not allocate" test_journal_appends_do_not_allocate;
          tc "journal bytes survive restore" test_journal_bytes_survive_restore;
          QCheck_alcotest.to_alcotest prop_recover_equals_legacy;
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
          tc "resume refuses a diverged prefix" test_resume_refuses_a_diverged_prefix;
          tc "resume survives a corrupt newest snapshot" test_resume_discards_corrupt_snapshot;
          tc "resume skips a resealed snapshot that breaks an invariant"
            test_resume_discards_resealed_snapshot;
          tc "resume survives a poisoned journal" test_resume_survives_poisoned_journal;
          tc "restore rejects an unparseable prefix" test_restore_rejects_unparseable_prefix;
          tc "journal ENOSPC degrades gracefully" test_session_degrades_on_journal_enospc;
          tc "status leaves a live journal alone" test_status_leaves_a_live_journal_alone;
          tc "status reads only snapshot headers" test_status_reads_headers;
          tc "watchdog rotates epochs and caps streams" test_session_rotation_epochs;
          QCheck_alcotest.to_alcotest prop_append_chunk_equals_append;
        ] );
      ( "supervise",
        [
          tc "completed and failed" test_supervise_completed_and_failed;
          tc "timeout" test_supervise_timeout;
          tc "guard cancels an object-only hang" test_guard_cancels_an_object_only_hang;
          tc "runner flushes batch on crash" test_runner_flushes_on_crash;
          tc "degraded suite" test_suite_degraded;
        ] );
    ]
