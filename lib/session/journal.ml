module Tf = Ormp_trace.Trace_file
module Io = Ormp_workloads.Faults.Io
module Tm = Ormp_telemetry.Telemetry

(* Per-event counters are fine here: each is one branch while telemetry
   is off, and a journal line is a few dozen bytes of [output]. *)
let m_appends = Tm.Metrics.counter "journal.appends"
let m_bytes = Tm.Metrics.counter "journal.bytes"

(* --- writing ---------------------------------------------------------- *)

type writer = {
  oc : out_channel;
  io : Io.t option;
  mutable crc : int;
  line : Tf.buffer;  (* the lines being appended, rendered in place *)
}

let create ?io ?resume path =
  let crc =
    match resume with
    | Some crc -> crc
    | None ->
      (* The header lands atomically: a journal file either does not exist
         or starts with a complete header. A kill between creating the file
         and flushing a buffered header used to leave an empty journal that
         [recover] rejects, so the session could never be resumed. *)
      Storage.write_atomic ~path (Tf.header ^ "\n");
      0
  in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  (* An append channel starts at position 0; count the bytes already in
     the file (the header, and a resumed journal's lines) in [bytes]. *)
  seek_out oc (out_channel_length oc);
  { oc; io; crc; line = Tf.buffer () }

(* Write out and CRC what [w.line] holds. The CRC covers event lines only
   (header excluded), each with its newline — the same accumulation
   recovery performs. *)
let emit w =
  let b = Tf.bytes w.line and n = Tf.length w.line in
  (match w.io with
  | None -> output w.oc b 0 n
  | Some f -> Io.write f w.oc (Bytes.sub_string b 0 n));
  w.crc <- Ormp_util.Crc32.update_sub w.crc b 0 n;
  Tf.clear w.line;
  if Tm.on () then Tm.Metrics.add m_bytes n

let append w ev =
  Tf.clear w.line;
  Tf.render w.line ev;
  emit w;
  if Tm.on () then Tm.Metrics.incr m_appends

(* A chunk's lines go out in one [output], in pieces of at most this many
   bytes, so a maximal wire batch cannot grow the line buffer past it. *)
let emit_bytes = 65536

let append_chunk w (c : Ormp_trace.Batch.chunk) ~off ~len =
  if off < 0 || len < 0 || off > c.len - len then invalid_arg "Journal.append_chunk";
  Tf.clear w.line;
  for i = off to off + len - 1 do
    Tf.render_access w.line ~instr:(Array.unsafe_get c.instr i) ~addr:(Array.unsafe_get c.addr i)
      ~size:(Array.unsafe_get c.size i)
      ~is_store:(Array.unsafe_get c.store i <> 0);
    (* Under a fault plan each line is still its own write, so every
       planned ordinal names one event, as with [append]. *)
    if w.io <> None || Tf.length w.line >= emit_bytes then emit w
  done;
  if Tf.length w.line > 0 then emit w;
  if Tm.on () then Tm.Metrics.add m_appends len

let crc_event scratch crc ev =
  Tf.clear scratch;
  Tf.render scratch ev;
  Ormp_util.Crc32.update_sub crc (Tf.bytes scratch) 0 (Tf.length scratch)

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
    let scratch = Tf.buffer () in
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
            (* Re-render rather than CRC the line as read: append CRCs
               exactly what the renderer emits, and the two must stay
               byte-equal. *)
            crc := crc_event scratch !crc ev;
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
