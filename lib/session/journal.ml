module Tf = Ormp_trace.Trace_file
module Io = Ormp_workloads.Faults.Io
module Tm = Ormp_telemetry.Telemetry

(* Per-event counters are fine here: sessions are I/O-bound, and the
   append path already formats and writes a line per event. *)
let m_appends = Tm.Metrics.counter "journal.appends"
let m_bytes = Tm.Metrics.counter "journal.bytes"

(* --- writing ---------------------------------------------------------- *)

type writer = {
  oc : out_channel;
  io : Io.t option;
  mutable crc : int;
}

let create ?io ?resume path =
  match resume with
  | None ->
    (* The header lands atomically: a journal file either does not exist
       or starts with a complete header. A kill between creating the file
       and flushing a buffered header used to leave an empty journal that
       [recover] rejects, so the session could never be resumed. *)
    Storage.write_atomic ~path (Tf.header ^ "\n");
    let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
    (* Count the header in [bytes], as a freshly written journal always did. *)
    seek_out oc (out_channel_length oc);
    { oc; io; crc = 0 }
  | Some crc ->
    let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
    { oc; io; crc }

let append w ev =
  let line = Tf.event_line ev in
  (match w.io with None -> output_string w.oc line | Some f -> Io.write f w.oc line);
  (* The CRC covers event lines only (header excluded), and includes each
     line's newline — the same accumulation recovery performs. *)
  w.crc <- Ormp_util.Crc32.update w.crc line;
  if Tm.on () then begin
    Tm.Metrics.incr m_appends;
    Tm.Metrics.add m_bytes (String.length line)
  end

let flush w = flush w.oc

let bytes w = pos_out w.oc
let close w = close_out_noerr w.oc
let crc w = w.crc

(* --- recovery --------------------------------------------------------- *)

type recovered = {
  events : Ormp_trace.Event.t array;
  r_crc : int;
  crc_at : int;
  truncated : bool;
}

let ( let* ) = Result.bind

let recover ?(at = 0) path =
  let* data = Storage.read_file path in
  let len = String.length data in
  let line_end from = match String.index_from_opt data from '\n' with Some i -> i | None -> -1 in
  let hdr_end = line_end 0 in
  if hdr_end < 0 || String.trim (String.sub data 0 hdr_end) <> Tf.header then
    Error "journal: bad header"
  else begin
    let events = Ormp_util.Vec.create () in
    let crc = ref 0 and crc_at = ref (if at = 0 then Some 0 else None) in
    let truncate_at = ref None in
    let err = ref None in
    let pos = ref (hdr_end + 1) in
    while !err = None && !truncate_at = None && !pos < len do
      match line_end !pos with
      | -1 ->
        (* Final bytes with no terminating newline: the torn tail of a write
           that died mid-line. Note the byte offset so the caller's journal
           can be reopened for append right where the sound prefix ends. *)
        truncate_at := Some !pos
      | e -> (
        let line = String.sub data !pos (e - !pos) in
        pos := e + 1;
        if String.trim line = "" then ()
        else
          match Tf.parse_line line with
          | Error msg -> err := Some (Printf.sprintf "journal: %s in %S" msg line)
          | Ok ev ->
            Ormp_util.Vec.push events ev;
            (* Re-render rather than reuse [line]: append CRCs exactly what
               event_line emits, and the two must stay byte-equal. *)
            crc := Ormp_util.Crc32.update !crc (Tf.event_line ev);
            if Ormp_util.Vec.length events = at then crc_at := Some !crc)
    done;
    match !err with
    | Some e -> Error e
    | None -> (
      (match !truncate_at with
      | Some off -> (try Unix.truncate path off with Unix.Unix_error _ -> ())
      | None -> ());
      match !crc_at with
      | None -> Error (Printf.sprintf "journal holds %d events, snapshot is at %d" (Ormp_util.Vec.length events) at)
      | Some crc_at ->
        Ok
          {
            events = Ormp_util.Vec.to_array events;
            r_crc = !crc;
            crc_at;
            truncated = !truncate_at <> None;
          })
  end
