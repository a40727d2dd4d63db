(* See the mli. The client is deliberately synchronous: one session is
   one loop of send-frame / poll-acks, with every blocking step going
   through the Net_io deadline seam, so a wedged daemon can only cost a
   timeout, never a hang. *)

module Batch = Ormp_trace.Batch
module Pipeline = Ormp_session.Pipeline
module Event = Ormp_trace.Event
module Net_fault = Ormp_workloads.Faults.Net
module Prng = Ormp_util.Prng
module Log = Ormp_telemetry.Log

type retry = {
  attempts : int;
  backoff_s : float;
  backoff_max_s : float;
  jitter : float;
  seed : int;
}

let default_retry =
  { attempts = 10; backoff_s = 0.02; backoff_max_s = 0.5; jitter = 0.25; seed = 0x5eed }

type stats = {
  st_events : int;
  st_frames : int;
  st_reconnects : int;
  st_sheds : int;
  st_acks : int;
  st_ack_latencies : float list;
  st_wall_s : float;
}

let generate ~workload ~seed =
  match Ormp_session.Session.find_workload workload with
  | Error _ as e -> e
  | Ok program ->
    let buf = Ormp_util.Vec.create () in
    let config = { Ormp_vm.Config.default with seed } in
    (* Sessions and [reference] take the run as boxed events.
       lint:allow boxed-driver *)
    ignore (Ormp_vm.Runner.run ~config program (Ormp_util.Vec.push buf));
    let events = Ormp_util.Vec.to_array buf in
    Ok (events, Array.length events)

let reference ~dir ~events =
  Ormp_util.Fs.mkdirs dir;
  let pipe = Pipeline.create () in
  Array.iter (Pipeline.apply pipe) events;
  Pipeline.finalize pipe ~dir ~elapsed:0.0

(* --- one session -------------------------------------------------------- *)

exception Reconnect of string

type live = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  buf : Bytes.t;
  io_timeout_s : float;
  net : Net_fault.t;
  (* (end position, send instant) of frames awaiting an Ack *)
  pending : (int * float) Queue.t;
  mutable frames : int;
  mutable acks : int;
  mutable latencies : float list;
}

let deadline l = Net_io.now () +. l.io_timeout_s

let send_frame l msg =
  let s = Wire.encode msg in
  match Net_fault.next_frame l.net with
  | Net_fault.Send ->
    Net_io.send_all l.fd s ~deadline_s:(deadline l);
    true
  | Net_fault.Slow ->
    Net_io.send_slow l.fd s ~chunk:7 ~delay_s:0.002 ~deadline_s:(deadline l);
    true
  | Net_fault.Torn ->
    Net_io.send_prefix l.fd s (String.length s / 2) ~deadline_s:(deadline l);
    raise (Reconnect "injected torn frame")
  | Net_fault.Disconnect -> raise (Reconnect "injected disconnect")

(* Control frames (Hello, Finish, Pong) bypass the fault plan: the plan
   counts data frames so a fault ordinal maps to a stream position. *)
let send_ctl l msg = Net_io.send_all l.fd (Wire.encode msg) ~deadline_s:(deadline l)

let handle_ack l position =
  let now = Net_io.now () in
  let continue = ref true in
  while !continue && not (Queue.is_empty l.pending) do
    let p, sent = Queue.peek l.pending in
    if p <= position then begin
      ignore (Queue.pop l.pending);
      l.acks <- l.acks + 1;
      l.latencies <- (now -. sent) :: l.latencies
    end
    else continue := false
  done

(* Drain whatever the server has pushed at us without blocking. *)
let rec poll_inbound l =
  match Wire.next l.dec with
  | Error e -> raise (Reconnect ("server sent garbage: " ^ e))
  | Ok (Some msg) ->
    (match msg with
    | Wire.Ack { position } -> handle_ack l position
    | Wire.Ping -> send_ctl l Wire.Pong
    | Wire.Err e -> raise (Reconnect ("server error: " ^ e))
    | Wire.Shed _ -> raise (Reconnect "shed mid-stream")
    | _ -> ());
    poll_inbound l
  | Ok None -> (
    match Net_io.read_nonblock l.fd l.buf with
    | `Again -> ()
    | `Eof -> raise (Reconnect "server closed connection")
    | `Read n ->
      Wire.feed l.dec l.buf 0 n;
      poll_inbound l)

(* Block for the next frame, still answering pings. *)
let rec recv_msg l =
  match Wire.next l.dec with
  | Error e -> raise (Reconnect ("server sent garbage: " ^ e))
  | Ok (Some Wire.Ping) ->
    send_ctl l Wire.Pong;
    recv_msg l
  | Ok (Some msg) -> msg
  | Ok None ->
    let n = Net_io.recv_into l.fd l.buf ~deadline_s:(deadline l) in
    if n = 0 then raise (Reconnect "server closed connection");
    Wire.feed l.dec l.buf 0 n;
    recv_msg l

(* One-shot stats fetch: connect, ask, read frames (answering pings)
   until the snapshot arrives. No session, no retry loop — a monitor
   polls, so the poller owns the retry policy. *)
let fetch_stats ~socket ?(io_timeout_s = 10.0) () : (Stats.t, string) result =
  match
    let fd = Net_io.connect_unix ~path:socket ~deadline_s:(Net_io.now () +. io_timeout_s) in
    Fun.protect
      ~finally:(fun () -> Net_io.close_noerr fd)
      (fun () ->
        let l =
          {
            fd;
            dec = Wire.decoder ();
            buf = Bytes.create 65536;
            io_timeout_s;
            net = Net_fault.create Net_fault.none;
            pending = Queue.create ();
            frames = 0;
            acks = 0;
            latencies = [];
          }
        in
        send_ctl l Wire.Stats_req;
        let rec wait () =
          match recv_msg l with
          | Wire.Stats s -> Ok s
          | Wire.Err e -> Error ("server error: " ^ e)
          | _ -> wait ()
        in
        wait ())
  with
  | r -> r
  | exception Reconnect reason -> Error reason
  | exception Net_io.Timeout -> Error "i/o deadline expired"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

type outcome = Done | Shed_off of float | Dropped of string

let stream l ~events ~from =
  let total = Array.length events in
  let cap = Batch.default_capacity in
  let chunk =
    {
      Batch.instr = Array.make cap 0;
      addr = Array.make cap 0;
      size = Array.make cap 0;
      store = Array.make cap 0;
      len = 0;
    }
  in
  let start = ref from in
  let flush_chunk () =
    if chunk.Batch.len > 0 then begin
      let sent = send_frame l (Wire.Batch { start = !start; chunk }) in
      if sent then begin
        l.frames <- l.frames + 1;
        Queue.add (!start + chunk.Batch.len, Net_io.now ()) l.pending
      end;
      start := !start + chunk.Batch.len;
      chunk.Batch.len <- 0;
      poll_inbound l
    end
  in
  for i = from to total - 1 do
    match events.(i) with
    | Event.Access { instr; addr; size; is_store } ->
      if chunk.Batch.len = cap then flush_chunk ();
      let j = chunk.Batch.len in
      chunk.Batch.instr.(j) <- instr;
      chunk.Batch.addr.(j) <- addr;
      chunk.Batch.size.(j) <- size;
      chunk.Batch.store.(j) <- Bool.to_int is_store;
      chunk.Batch.len <- j + 1
    | (Event.Alloc _ | Event.Free _) as ev ->
      flush_chunk ();
      if send_frame l (Wire.Ev { position = i; event = ev }) then begin
        l.frames <- l.frames + 1;
        Queue.add (i + 1, Net_io.now ()) l.pending
      end;
      start := i + 1;
      poll_inbound l
  done;
  flush_chunk ();
  send_ctl l (Wire.Finish { position = total });
  let rec wait_finish () =
    match recv_msg l with
    | Wire.Finish_ok _ -> ()
    | Wire.Ack { position } ->
      handle_ack l position;
      wait_finish ()
    | Wire.Err e -> raise (Reconnect ("server error: " ^ e))
    | _ -> wait_finish ()
  in
  wait_finish ()

let attempt ~socket ~token ~workload ~events ~ack_every ~io_timeout_s ~net ~frames ~acks
    ~latencies =
  let fd = Net_io.connect_unix ~path:socket ~deadline_s:(Net_io.now () +. io_timeout_s) in
  Fun.protect
    ~finally:(fun () -> Net_io.close_noerr fd)
    (fun () ->
      let l =
        {
          fd;
          dec = Wire.decoder ();
          buf = Bytes.create 65536;
          io_timeout_s;
          net;
          pending = Queue.create ();
          frames = 0;
          acks = 0;
          latencies = [];
        }
      in
      let finish outcome =
        frames := !frames + l.frames;
        acks := !acks + l.acks;
        latencies := l.latencies @ !latencies;
        outcome
      in
      let result =
        try
          send_ctl l (Wire.Hello { token; workload; ack_every });
          match recv_msg l with
          | Wire.Shed { retry_after_s; reason } ->
            Log.debugf ~src:"client" "session %s shed: %s" token reason;
            Shed_off retry_after_s
          | Wire.Err e -> Dropped ("server refused hello: " ^ e)
          | Wire.Hello_ok { complete = true; _ } -> Done
          | Wire.Hello_ok { position; _ } ->
            let from =
              if position > 0 then max 0 (position - Net_fault.rewind net) else position
            in
            stream l ~events ~from;
            Done
          | _ -> Dropped "unexpected reply to hello"
        with
        | Reconnect reason -> Dropped reason
        | Net_io.Timeout -> Dropped "i/o deadline expired"
      in
      finish result)

let run_session ~socket ~token ~workload ~events ?(ack_every = 4)
    ?(retry = default_retry) ?(net = Net_fault.create Net_fault.none)
    ?(io_timeout_s = 10.0) () =
  (* The daemon closes connections we are mid-write on (protocol errors,
     restarts): that must surface as EPIPE for the retry loop, not kill
     the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t0 = Net_io.now () in
  let prng = Prng.create ~seed:retry.seed in
  let frames = ref 0 and acks = ref 0 and latencies = ref [] in
  let reconnects = ref 0 and sheds = ref 0 in
  let backoff k =
    let base =
      Float.min retry.backoff_max_s (retry.backoff_s *. (2.0 ** float_of_int (k - 1)))
    in
    let w = 1.0 +. (retry.jitter *. (Prng.float prng 2.0 -. 1.0)) in
    Float.max 0.0 (base *. w)
  in
  let stats () =
    {
      st_events = Array.length events;
      st_frames = !frames;
      st_reconnects = !reconnects;
      st_sheds = !sheds;
      st_acks = !acks;
      st_ack_latencies = !latencies;
      st_wall_s = Net_io.now () -. t0;
    }
  in
  (* Why the last attempt failed, so an exhausted budget says why. *)
  let last_drop = ref "none" in
  let rec go k =
    if k > retry.attempts then
      Error
        (Printf.sprintf
           "session %s: retry budget exhausted after %d attempts (last drop: %s; %d shed, %d \
            reconnects)"
           token retry.attempts !last_drop !sheds !reconnects)
    else
      let retry_after reason extra =
        last_drop := reason;
        Log.debugf ~src:"client" "session %s attempt %d: %s" token k reason;
        Net_io.sleep (extra +. backoff k);
        go (k + 1)
      in
      match
        attempt ~socket ~token ~workload ~events ~ack_every ~io_timeout_s ~net ~frames
          ~acks ~latencies
      with
      | Done -> Ok (stats ())
      | Shed_off after ->
        incr sheds;
        retry_after "shed" after
      | Dropped reason ->
        incr reconnects;
        retry_after reason 0.0
      | exception Unix.Unix_error (e, _, _) ->
        incr reconnects;
        retry_after (Unix.error_message e) 0.0
      | exception Net_io.Timeout ->
        incr reconnects;
        retry_after "connect deadline expired" 0.0
  in
  go 1
