(* serve-smoke: the end-to-end recovery proof for `ormp serve`, run as
   real processes under `dune build @serve-smoke`.

   One daemon process serves 8 concurrent client sessions (three of them
   with injected wire faults); the daemon is killed with SIGKILL while
   the sessions stream, restarted, and every client must retry and
   resume to completion. The daemon is then drained with SIGTERM (must
   exit 0), and all eight session profiles must be byte-identical to a
   locally-computed serial reference, and every session journal to the
   header plus the rendered lines of the stream. Prints one OK line; any
   failure exits nonzero with a diagnosis. *)

module Client = Ormp_server.Client
module Net_fault = Ormp_workloads.Faults.Net
module Spans = Ormp_telemetry.Spans
module Sexp = Ormp_util.Sexp
module J = Ormp_util.Json

let ormp = Sys.argv.(1)
let root = "smoke.serve"
let socket = Filename.concat root "ormp.sock"
let n_clients = 8

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("serve-smoke: " ^ m); exit 1) fmt

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let profile_bytes dir =
  List.map
    (fun f -> read_file (Filename.concat dir f))
    [ "whomp.profile"; "rasg.profile"; "leap.profile" ]

let start_daemon () =
  let pid =
    Unix.create_process ormp
      [| ormp; "serve"; "--socket"; socket; "--root"; root; "--jobs"; "2"; "--quiet" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (* create_process returns before the child binds; wait for the socket *)
  let rec wait n =
    if Sys.file_exists socket then ()
    else if n = 0 then fail "daemon never bound %s" socket
    else begin
      Unix.sleepf 0.02;
      wait (n - 1)
    end
  in
  wait 250;
  pid

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  rm_rf root;
  Unix.mkdir root 0o755;
  let events =
    match Client.generate ~workload:"linked_list" ~seed:1 with
    | Ok (evs, _) -> evs
    | Error m -> fail "%s" m
  in
  let daemon = ref (start_daemon ()) in

  (* 8 concurrent sessions; the first three carry injected wire faults *)
  let plan i =
    match i with
    | 0 -> { Net_fault.none with Net_fault.torn_frame = Some 15 }
    | 1 -> { Net_fault.none with Net_fault.disconnect_before = Some 30 }
    | 2 -> { Net_fault.none with Net_fault.disconnect_before = Some 9; dup_retry = Some 400 }
    | _ -> Net_fault.none
  in
  let clients =
    Array.init n_clients (fun i ->
        Domain.spawn (fun () ->
            Client.run_session ~socket ~token:(Printf.sprintf "tok-%d" i)
              ~workload:"linked_list" ~events ~ack_every:4
              ~retry:
                {
                  Client.default_retry with
                  Client.attempts = 60;
                  backoff_s = 0.01;
                  backoff_max_s = 0.1;
                  seed = 0x5eed + i;
                }
              ~net:(Net_fault.create (plan i)) ~io_timeout_s:10.0 ()))
  in

  (* kill -9 mid-stream, then bring a fresh daemon up on the same root *)
  Unix.sleepf 0.05;
  Unix.kill !daemon Sys.sigkill;
  ignore (Unix.waitpid [] !daemon);
  Unix.sleepf 0.05;
  daemon := start_daemon ();

  let reconnects = ref 0 in
  Array.iteri
    (fun i d ->
      match Domain.join d with
      | Ok (st : Client.stats) -> reconnects := !reconnects + st.Client.st_reconnects
      | Error m -> fail "session tok-%d failed: %s" i m)
    clients;
  if !reconnects = 0 then fail "kill -9 produced no reconnects — the fault never landed";

  (* graceful drain must exit 0 *)
  Unix.kill !daemon Sys.sigterm;
  (match Unix.waitpid [] !daemon with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> fail "daemon exited %d after SIGTERM" c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> fail "daemon died on signal %d" s);

  (* every session must be byte-identical to the serial reference *)
  let ref_dir = Filename.concat root "reference" in
  Client.reference ~dir:ref_dir ~events;
  let want = profile_bytes ref_dir in
  for i = 0 to n_clients - 1 do
    let dir = Filename.concat root (Filename.concat "sessions" (Printf.sprintf "tok-%d" i)) in
    if profile_bytes dir <> want then fail "session tok-%d profiles differ from reference" i
  done;
  (* ...and every journal must be the stream itself, line for line: the
     daemon's chunk path wrote each access once, in order, through the
     kill -9, the restart and the three wire faults *)
  let want_journal =
    Ormp_trace.Trace_file.header ^ "\n"
    ^ String.concat "" (Array.to_list (Array.map Ormp_trace.Trace_file.event_line events))
  in
  for i = 0 to n_clients - 1 do
    let dir = Filename.concat root (Filename.concat "sessions" (Printf.sprintf "tok-%d" i)) in
    if read_file (Filename.concat dir "journal.trace") <> want_journal then
      fail "session tok-%d journal differs from the rendered event stream" i
  done;
  (* the faults above leave flight bundles behind; each one must be a
     valid post-mortem (span-checked trace + loadable record) *)
  let flight_dir = Filename.concat root "flight" in
  let bundles = if Sys.file_exists flight_dir then Sys.readdir flight_dir else [||] in
  Array.iter
    (fun name ->
      let dir = Filename.concat flight_dir name in
      (match Result.map Spans.validate_json (J.of_string (read_file (Filename.concat dir "trace.json"))) with
      | Ok (Ok _) -> ()
      | Ok (Error e) -> fail "flight bundle %s: trace.json invalid: %s" name e
      | Error e -> fail "flight bundle %s: trace.json unparsable: %s" name e);
      match Sexp.load (Filename.concat dir "record.sexp") with
      | Ok _ -> ()
      | Error e -> fail "flight bundle %s: record.sexp: %s" name e)
    bundles;
  if Array.length bundles = 0 then
    fail "no flight bundle on disk despite wire faults and a kill -9 resume";

  Printf.printf
    "serve-smoke OK: %d sessions (3 wire-faulted) survived kill -9 + restart with %d \
     reconnects; all profiles and journals byte-identical; %d flight bundles validated\n"
    n_clients !reconnects (Array.length bundles)
