(* watch-smoke: the end-to-end proof for ORMP-Watch, run as real
   processes under `dune build @watch-smoke`.

   One `ormp serve --stats-file` process serves three concurrent client
   sessions (one with injected wire faults). While they stream, an
   `ormp top SOCKET --once` subprocess must exit 0 and render the
   daemon/sessions tables from a live Stats frame. After the clients
   finish, the periodically-exported stats.json must decode as the
   current snapshot version and render back to its own bytes, every
   flight bundle the faulted session caused must be its trace.json alone
   (span-validated, naming its reason), the daemon root must hold no
   heartbeat file, and a SIGTERM drain must exit 0. Prints one OK line;
   any failure exits nonzero with a diagnosis. *)

module Client = Ormp_server.Client
module Net_fault = Ormp_workloads.Faults.Net
module Stats = Ormp_server.Stats

let ormp = Sys.argv.(1)
let root = "smoke.watch"
let socket = Filename.concat root "ormp.sock"
let stats_file = Filename.concat root "stats.json"
let n_clients = 3

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("watch-smoke: " ^ m); exit 1) fmt

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let start_daemon () =
  let pid =
    Unix.create_process ormp
      [|
        ormp; "serve"; "--socket"; socket; "--root"; root; "--jobs"; "2";
        "--heartbeat-every"; "0.1"; "--stats-file"; stats_file; "--quiet";
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
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

(* Run a subprocess with stdout captured; returns (exit code, output). *)
let run_capture argv =
  let r, w = Unix.pipe () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    let n = Unix.read r chunk 0 4096 in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    end
  in
  drain ();
  Unix.close r;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> (c, Buffer.contents buf)
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> fail "%s died on signal %d" argv.(0) s

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  rm_rf root;
  Unix.mkdir root 0o755;
  let events =
    match Client.generate ~workload:"linked_list" ~seed:1 with
    | Ok (evs, _) -> evs
    | Error m -> fail "%s" m
  in
  let daemon = start_daemon () in

  (* three concurrent sessions; the first one suffers torn frames, so it
     must reconnect — and every reconnect dumps a resume flight bundle *)
  let plan i =
    if i = 0 then { Net_fault.none with Net_fault.torn_frame = Some 11 }
    else Net_fault.none
  in
  let clients =
    Array.init n_clients (fun i ->
        Domain.spawn (fun () ->
            Client.run_session ~socket ~token:(Printf.sprintf "w-%d" i)
              ~workload:"linked_list" ~events ~ack_every:4
              ~retry:
                {
                  Client.default_retry with
                  Client.attempts = 60;
                  backoff_s = 0.01;
                  backoff_max_s = 0.1;
                  seed = 0x7a7c + i;
                }
              ~net:(Net_fault.create (plan i)) ~io_timeout_s:10.0 ()))
  in

  (* one-shot top against the live daemon, while the clients stream *)
  let top_code, top_out = run_capture [| ormp; "top"; socket; "--once" |] in
  if top_code <> 0 then fail "ormp top --once exited %d:\n%s" top_code top_out;
  List.iter
    (fun needle ->
      if not (contains top_out needle) then
        fail "ormp top output is missing %S:\n%s" needle top_out)
    [ "daemon"; "sessions"; "events/s"; "registry" ];

  Array.iteri
    (fun i d ->
      match Domain.join d with
      | Ok (st : Client.stats) ->
        if i = 0 && st.Client.st_reconnects = 0 then
          fail "the torn-frame fault never forced a reconnect"
      | Error m -> fail "session w-%d failed: %s" i m)
    clients;

  (* the periodic export lands at heartbeat cadence; give it a moment *)
  let rec wait_stats n =
    if Sys.file_exists stats_file then ()
    else if n = 0 then fail "%s never appeared" stats_file
    else begin
      Unix.sleepf 0.05;
      wait_stats (n - 1)
    end
  in
  wait_stats 100;
  (let text = read_file stats_file in
   match Stats.of_string text with
   | Error e -> fail "stats.json does not decode: %s" e
   | Ok s ->
     if Ormp_server.Wire.stats_json s <> text then fail "stats.json does not render back");

  let bundles = match Flight_check.validate root with Ok n -> n | Error m -> fail "%s" m in
  if bundles = 0 then fail "no flight bundle on disk despite a faulted session";

  (* graceful drain must exit 0 *)
  Unix.kill daemon Sys.sigterm;
  (match Unix.waitpid [] daemon with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> fail "daemon exited %d after SIGTERM" c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> fail "daemon died on signal %d" s);

  Printf.printf
    "watch-smoke OK: ormp top rendered a live snapshot, stats.json exported v%d, %d \
     flight bundle(s) validated, drain exited 0\n"
    Stats.version bundles
