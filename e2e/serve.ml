(* The serving path: an in-process `ormp serve` daemon (jobs=1) on its
   own domain, and closed-loop sessions from the main domain through
   Client.run_session — the next session starts after Finish_ok. Plus
   the server layers timed on their own: the journal and the wire codec,
   over the same recorded stream. *)

module Batch = Ormp_trace.Batch
module Daemon = Ormp_server.Daemon
module Client = Ormp_server.Client
module Wire = Ormp_server.Wire
module Journal = Ormp_session.Journal
module Histogram = Ormp_util.Histogram

let ( // ) = Filename.concat
let now_s = Ormp_util.Clock.now_s
let ack_every = 4

type daemon = { d : Daemon.t; domain : unit Domain.t; socket : string }

(* The Stats channel stays off (`ormp serve --no-stats`): enabling it
   turns the process-wide telemetry registry on, which would also record
   inside every in-process layer this benchmark times. Its overhead has
   its own gate (bench `observe`). *)
let start ~dir =
  let socket = dir // "s.sock" in
  let options =
    { (Daemon.default_options ~socket ~root:(dir // "daemon")) with Daemon.jobs = 1; stats = false }
  in
  let d = Daemon.create options in
  { d; domain = Domain.spawn (fun () -> Daemon.run d); socket }

let stop t =
  Daemon.stop t.d;
  Domain.join t.domain

let session_dir t token = Filename.dirname t.socket // "daemon" // "sessions" // token

(* Ack latencies in seconds, pooled over sessions into 1 µs buckets (the
   raw lists would hold millions of boxed floats); above 100 ms they
   land in the top bucket. *)
let acks () = Histogram.create ~lo:0.0 ~hi:0.1 ~buckets:100_000

type session = {
  wall_s : float;
  frames : int;
  acks : int;
  reconnects : int;
  sheds : int;
}

let session t ~token ~events ~acks_into =
  match
    Client.run_session ~socket:t.socket ~token ~workload:"churn" ~events ~ack_every ()
  with
  | Error e -> Error e
  | Ok (st : Client.stats) ->
    List.iter (Histogram.add acks_into) st.st_ack_latencies;
    Ok
      {
        wall_s = st.st_wall_s;
        frames = st.st_frames;
        acks = st.st_acks;
        reconnects = st.st_reconnects;
        sheds = st.st_sheds;
      }

(* --- the server layers on their own ----------------------------------- *)

(* The data frames a client sends for a stream, each with its event
   count: a Batch of the default capacity cuts the runs of accesses,
   and every alloc/free goes alone. *)
let frames events =
  let out = ref [] and next = ref 0 in
  let b =
    Batch.create
      ~on_chunk:(fun c ->
        let lane a = Array.sub a 0 c.len in
        let chunk =
          { Batch.instr = lane c.instr; addr = lane c.addr; size = lane c.size; store = lane c.store; len = c.len }
        in
        out := (Wire.Batch { start = !next; chunk }, c.len) :: !out;
        next := !next + c.len)
      ~on_event:(fun event ->
        out := (Wire.Ev { position = !next; event }, 1) :: !out;
        incr next)
      ()
  in
  Array.iter (Batch.event b) events;
  Batch.flush b;
  List.rev !out

(* The daemon's journal work for one session, into a fresh file: a
   flush at Hello, Journal.append of every event, a flush every
   [ack_every] frames and one at Finish; seconds. *)
let time_journal ~path ~events ~frames =
  let t0 = now_s () in
  let j = Journal.create path in
  Journal.flush j;
  let next = ref 0 in
  List.iteri
    (fun k (_, count) ->
      for i = !next to !next + count - 1 do
        Journal.append j events.(i)
      done;
      next := !next + count;
      if (k + 1) mod ack_every = 0 then Journal.flush j)
    frames;
  Journal.flush j;
  Journal.close j;
  now_s () -. t0

(* Wire.encode of every frame, then feed/next over the encoded bytes;
   seconds each. Fails if the decoder does not return every frame. *)
let time_wire msgs =
  let t0 = now_s () in
  let encoded = List.map Wire.encode msgs in
  let t1 = now_s () in
  let dec = Wire.decoder () in
  let decoded = ref 0 in
  List.iter
    (fun s ->
      Wire.feed dec (Bytes.unsafe_of_string s) 0 (String.length s);
      let rec drain () =
        match Wire.next dec with
        | Ok (Some _) ->
          incr decoded;
          drain ()
        | Ok None -> ()
        | Error e -> failwith ("wire decode: " ^ e)
      in
      drain ())
    encoded;
  let t2 = now_s () in
  if !decoded <> List.length msgs then failwith "wire decode: frames lost";
  (t1 -. t0, t2 -. t1)
