(* Flight recorder: a bounded ring of recent notable daemon events
   (session lifecycle, acks, sheds, protocol errors, kills) kept in
   memory at all times, dumped as a post-mortem bundle when a session
   fails. The ring mirrors the Spans buffer discipline — fixed capacity,
   overwrite-oldest with a dropped counter, never grow — because a
   recorder must not OOM the process it is recording.

   A dump writes one file, `trace.json`: a Chrome trace_event document
   of zero-duration B/E pairs (one per recorded event, args carrying the
   session token and detail) that passes [Spans.validate_json], with the
   dump reason and the recorded and dropped counts in its `otherData`.
   Single-writer: the daemon's select loop owns the ring, so there is no
   locking. *)

type event = { ts_ns : int64; kind : string; session : string; detail : string }

type t = {
  cap : int;
  ring : event array;
  mutable total : int; (* events ever recorded; ring slot = total mod cap *)
  epoch_ns : int64;
}

let default_cap = 1024

let create ?(cap = default_cap) () =
  if cap <= 0 then invalid_arg "Flight.create: cap must be positive";
  {
    cap;
    ring = Array.make cap { ts_ns = 0L; kind = ""; session = ""; detail = "" };
    total = 0;
    epoch_ns = Ormp_util.Clock.now_ns ();
  }

let record t ~kind ~session ~detail =
  t.ring.(t.total mod t.cap) <-
    { ts_ns = Ormp_util.Clock.now_ns (); kind; session; detail };
  t.total <- t.total + 1

let recorded t = t.total
let dropped t = if t.total > t.cap then t.total - t.cap else 0

(* Oldest-to-newest fold over whatever the ring still holds. *)
let fold f acc t =
  let live = min t.total t.cap in
  let first = t.total - live in
  let acc = ref acc in
  for i = first to t.total - 1 do
    acc := f !acc t.ring.(i mod t.cap)
  done;
  !acc

(* --- export ------------------------------------------------------------ *)

(* Each event becomes an instantaneous B/E pair (same name, same tid,
   same timestamp) so the document satisfies the strict LIFO pairing
   that [Spans.validate_json] enforces; session/detail ride in args,
   which the validator ignores. *)
let to_trace_json t ~reason =
  let module J = Ormp_util.Json in
  let events =
    fold
      (fun acc e ->
        let ts_us = Int64.to_float (Int64.sub e.ts_ns t.epoch_ns) /. 1000.0 in
        let ev ph =
          J.Obj
            [
              ("name", J.String e.kind);
              ("cat", J.String "flight");
              ("ph", J.String ph);
              ("ts", J.Float ts_us);
              ("pid", J.Int 1);
              ("tid", J.Int 0);
              ( "args",
                J.Obj
                  [ ("session", J.String e.session); ("detail", J.String e.detail) ] );
            ]
        in
        ev "E" :: ev "B" :: acc)
      [] t
  in
  J.Obj
    [
      ("traceEvents", J.List (List.rev events));
      ("displayTimeUnit", J.String "ns");
      ( "otherData",
        J.Obj
          [
            ("reason", J.String reason);
            ("recorded", J.Int (recorded t));
            ("dropped", J.Int (dropped t));
          ] );
    ]

let trace_file = "trace.json"

(* A bundle directory holds files only. *)
let remove_bundle d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

(* Write the post-mortem bundle as [dir], built in [.<name>.tmp] beside it
   and renamed into place: whole or not at all. Temporary directories a
   killed dump left there go first. Best effort by design: a full disk
   must not take the daemon down, so failures surface as [Error]. *)
let dump t ~dir ~reason : (unit, string) result =
  let parent = Filename.dirname dir in
  let tmp = Filename.concat parent ("." ^ Filename.basename dir ^ ".tmp") in
  try
    Ormp_util.Fs.mkdirs parent;
    Array.iter
      (fun f ->
        if String.starts_with ~prefix:"." f && String.ends_with ~suffix:".tmp" f then
          remove_bundle (Filename.concat parent f))
      (Sys.readdir parent);
    Sys.mkdir tmp 0o755;
    let oc = open_out_bin (Filename.concat tmp trace_file) in
    output_string oc (Ormp_util.Json.to_string (to_trace_json t ~reason));
    output_char oc '\n';
    close_out oc;
    remove_bundle dir;
    Sys.rename tmp dir;
    Ok ()
  with Sys_error m -> Error m
