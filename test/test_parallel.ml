(* One pipeline, many drivers: the serial Pipeline, Pipelines sharing a
   worker pool, and sessions at any --jobs must all write the serial
   reference's bytes — and a pooled session killed mid-run, or rotating
   its grammars under the quiesce barrier, must too. *)

module Whomp = Ormp_whomp.Whomp
module Pipeline = Ormp_session.Pipeline
module Session = Ormp_session.Session
module Equiv = Ormp_check.Equiv
module Client = Ormp_server.Client
module Pool = Ormp_trace.Pool
module Micro = Ormp_workloads.Micro
module Faults = Ormp_workloads.Faults
module Alloc = Ormp_memsim.Allocator

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

open Files

(* --- WHOMP on a pool = the separate serial wiring, every micro ---------- *)

let test_whomp_parallel_equiv () =
  List.iter
    (fun (name, prog) ->
      let serial = Whomp.profile prog in
      List.iter
        (fun jobs ->
          (* jobs 2: all five grammars share one worker; jobs 6: one each *)
          let pipe, r = Pipeline.run ~jobs prog in
          match Equiv.whomp serial (Pipeline.whomp_profile pipe ~elapsed:r.Ormp_vm.Runner.elapsed) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s (jobs %d): %s" name jobs e)
        [ 2; 6 ])
    Micro.all

(* --- one property: every way of producing a profile = the reference --- *)

let files = [ Pipeline.whomp_file; Pipeline.rasg_file; Pipeline.leap_file ]

let same_files ~ctx want dir =
  List.iter
    (fun f ->
      if read_file (Filename.concat dir f) <> read_file (Filename.concat want f) then
        QCheck.Test.fail_reportf "%s: %s differs from Client.reference" ctx f)
    files

(* Sessions name allocation sites through the run's instruction table,
   where the daemon (and so Client.reference) sees only site ids. Group
   labels are the one place the two namings meet the bytes, so the
   session oracle is the reference with its labels renamed — grammars,
   objects and every other byte untouched. *)
let named_reference ~table ref_dir dir =
  let ( // ) = Filename.concat in
  (match Ormp_persist.Whomp_io.load (ref_dir // Pipeline.whomp_file) with
  | Error e -> Alcotest.fail e
  | Ok p ->
    let label (g : Ormp_core.Omc.group_info) =
      { g with Ormp_core.Omc.label = (Ormp_trace.Instr.info table g.site).Ormp_trace.Instr.name }
    in
    Ormp_persist.Whomp_io.save (dir // Pipeline.whomp_file)
      { p with Whomp.groups = List.map label p.Whomp.groups });
  List.iter
    (fun f -> Out_channel.with_open_bin (dir // f) (fun oc ->
         Out_channel.output_string oc (read_file (ref_dir // f))))
    [ Pipeline.rasg_file; Pipeline.leap_file ]

(* A random churn workload (allocator policy and input seed drawn per
   case) through the serial Pipeline, three Pipelines interleaved event
   by event on one shared 2-worker pool, and Session.run at --jobs 1 and
   4: each must write Client.reference's bytes. *)
let prop_entry_points_match_reference =
  QCheck.Test.make ~name:"every entry point = Client.reference" ~count:12
    QCheck.(pair (int_range 1 10_000) (int_range 0 4))
    (fun (seed, policy) ->
      let policy =
        [| Alloc.Bump; Alloc.First_fit; Alloc.Best_fit; Alloc.Segregated; Alloc.Randomized seed |]
          .(policy)
      in
      let config = { Ormp_vm.Config.default with seed; policy } in
      let buf = Ormp_util.Vec.create () in
      let result = Ormp_vm.Runner.run ~config (Micro.churn ()) (Ormp_util.Vec.push buf) in
      let events = Ormp_util.Vec.to_array buf in
      let ref_dir = tmpdir () in
      Client.reference ~dir:ref_dir ~events;
      (* serial *)
      let dir = tmpdir () in
      let pipe = Pipeline.create () in
      Array.iter (Pipeline.apply pipe) events;
      Pipeline.finalize pipe ~dir ~elapsed:0.0;
      same_files ~ctx:"serial pipeline" ref_dir dir;
      rm_rf dir;
      (* three pipelines sharing one pool *)
      let pool = Pool.spawn ~jobs:2 () in
      let pipes = Array.init 3 (fun slot -> Pipeline.create ~pool:(pool, slot) ()) in
      Array.iter (fun ev -> Array.iter (fun p -> Pipeline.apply p ev) pipes) events;
      Array.iteri
        (fun i p ->
          let dir = tmpdir () in
          Pipeline.finalize p ~dir ~elapsed:0.0;
          same_files ~ctx:(Printf.sprintf "pooled pipeline %d" i) ref_dir dir;
          rm_rf dir)
        pipes;
      Pool.stop pool;
      (* sessions *)
      let want = tmpdir () in
      named_reference ~table:result.Ormp_vm.Runner.table ref_dir want;
      List.iter
        (fun jobs ->
          let dir = tmpdir () in
          (match Session.run ~jobs ~config ~dir ~workload:"churn" () with
          | Ok _ -> ()
          | Error e -> QCheck.Test.fail_reportf "session (jobs %d): %s" jobs e);
          same_files ~ctx:(Printf.sprintf "session --jobs %d" jobs) want dir;
          rm_rf dir)
        [ 1; 4 ];
      rm_rf want;
      rm_rf ref_dir;
      true)

(* --- sessions: parallel run = serial run, files and all ------------------ *)

let session_options =
  { Session.default_options with checkpoint_every = 500; watch_every = 0 }

let rotating_options =
  (* Small budget so the watchdog actually rotates grammars mid-run: the
     quiesce barrier must hand the rotation consistent frozen state. *)
  { Session.default_options with
    checkpoint_every = 500;
    watch_every = 200;
    grammar_budget = 400;
  }

let run_session ?io ?jobs ~options ~workload () =
  let dir = tmpdir () in
  match Session.run ?io ?jobs ~options ~dir ~workload () with
  | Error e -> Alcotest.fail e
  | Ok oc -> (dir, oc)

let test_session_parallel_equiv () =
  let workload = "linked_list" in
  let ref_dir, ref_oc = run_session ~options:session_options ~workload () in
  let ref_bytes = profile_bytes ref_dir in
  List.iter
    (fun jobs ->
      let dir, oc = run_session ~jobs ~options:session_options ~workload () in
      check_int (Printf.sprintf "position (jobs %d)" jobs)
        ref_oc.Session.oc_position oc.Session.oc_position;
      check_bool (Printf.sprintf "profile bytes (jobs %d)" jobs) true
        (profile_bytes dir = ref_bytes);
      rm_rf dir)
    [ 2; 4; 8 ];
  rm_rf ref_dir

let test_session_parallel_rotation_equiv () =
  let workload = "linked_list" in
  let ref_dir, ref_oc = run_session ~options:rotating_options ~workload () in
  check_bool "reference actually rotated" true (ref_oc.Session.oc_rotations > 0);
  let ref_bytes = profile_bytes ref_dir in
  let ref_epochs =
    List.sort compare (List.filter (fun f ->
        String.length f >= 6 && String.sub f 0 6 = "epoch-")
      (Array.to_list (Sys.readdir ref_dir)))
  in
  let dir, oc = run_session ~jobs:4 ~options:rotating_options ~workload () in
  check_int "same rotations" ref_oc.Session.oc_rotations oc.Session.oc_rotations;
  check_bool "profile bytes" true (profile_bytes dir = ref_bytes);
  List.iter
    (fun epoch ->
      check_bool (Printf.sprintf "epoch file %s" epoch) true
        (read_file (Filename.concat dir epoch)
        = read_file (Filename.concat ref_dir epoch)))
    ref_epochs;
  rm_rf dir;
  rm_rf ref_dir

(* --- kill mid-run, resume in parallel ------------------------------------ *)

let test_parallel_kill_and_resume () =
  let workload = "linked_list" in
  let ref_dir, _ = run_session ~options:session_options ~workload () in
  let ref_bytes = profile_bytes ref_dir in
  (* (kill-run jobs, resume jobs): same, and crossed both ways — jobs is a
     per-process knob, not session identity. *)
  List.iter
    (fun (run_jobs, resume_jobs) ->
      let dir = tmpdir () in
      let io = Faults.Io.create { Faults.Io.none with kill_at_checkpoint = Some 2 } in
      (match Session.run ~io ~jobs:run_jobs ~options:session_options ~dir ~workload () with
      | Ok _ -> Alcotest.fail "kill did not fire"
      | Error e -> Alcotest.failf "unexpected session error: %s" e
      | exception Faults.Io.Killed _ -> ());
      check_bool "no final profile after kill" false
        (Sys.file_exists (Filename.concat dir "whomp.profile"));
      (match Session.resume ~jobs:resume_jobs ~dir () with
      | Error e -> Alcotest.failf "resume (jobs %d->%d): %s" run_jobs resume_jobs e
      | Ok oc ->
        check_int "resumed from checkpoint 2"
          (2 * session_options.Session.checkpoint_every)
          (Option.value ~default:(-1) oc.Session.oc_resumed_from));
      check_bool
        (Printf.sprintf "bytes after kill/resume (jobs %d->%d)" run_jobs resume_jobs)
        true
        (profile_bytes dir = ref_bytes);
      rm_rf dir)
    [ (4, 4); (4, 1); (1, 4) ];
  rm_rf ref_dir

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_parallel"
    [
      ( "profilers",
        [
          tc "whomp parallel = serial (all micros)" test_whomp_parallel_equiv;
          QCheck_alcotest.to_alcotest prop_entry_points_match_reference;
        ] );
      ( "sessions",
        [
          tc "parallel session = serial session" test_session_parallel_equiv;
          tc "rotation under quiesce barrier" test_session_parallel_rotation_equiv;
          tc "kill mid-run, resume in parallel" test_parallel_kill_and_resume;
        ] );
    ]
