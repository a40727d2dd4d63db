module Tf = Ormp_trace.Trace_file
module Io = Ormp_workloads.Faults.Io
module Tm = Ormp_telemetry.Telemetry

(* Per-event counters are fine here: each is one branch while telemetry
   is off, and a journal line is a few dozen bytes of [output]. *)
let m_appends = Tm.Metrics.counter "journal.appends"
let m_bytes = Tm.Metrics.counter "journal.bytes"

type recovered = {
  tail : Ormp_trace.Event.t array;
  count : int;
  crc_at : int;
  r_crc : int;
  sound : int;
  truncated : bool;
}

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
    | Some r ->
      (* Cut a torn final line off, so the first append starts a line of
         its own. Only here: recovery itself never writes. *)
      if r.truncated then Unix.truncate path r.sound;
      r.r_crc
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

let crc_chunk scratch crc (c : Ormp_trace.Batch.chunk) ~off ~len =
  Tf.clear scratch;
  for i = off to off + len - 1 do
    Tf.render_access scratch ~instr:c.instr.(i) ~addr:c.addr.(i) ~size:c.size.(i)
      ~is_store:(c.store.(i) <> 0)
  done;
  Ormp_util.Crc32.update_sub crc (Tf.bytes scratch) 0 (Tf.length scratch)

let flush w = flush w.oc

let bytes w = pos_out w.oc
let close w = close_out_noerr w.oc
let crc w = w.crc

(* --- recovery --------------------------------------------------------- *)

(* One pass over the file: every line's bytes as read go into the CRC (by
   the trace syntax they are the bytes [append] wrote and CRC'd), the
   first [at] only counted, the rest parsed. *)
let recover ?(at = 0) path =
  let crc = ref 0 and crc_at = ref 0 and lines = ref 0 in
  let line l =
    crc := Ormp_util.Crc32.update (Ormp_util.Crc32.update !crc l) "\n";
    incr lines;
    if !lines = at then crc_at := !crc
  in
  let tail = Ormp_util.Vec.create () in
  match Tf.scan ~skip:at ~line path (Ormp_util.Vec.push tail) with
  | Error e -> Error ("journal: " ^ e)
  | Ok s when s.Tf.lines < at ->
    Error (Printf.sprintf "journal holds %d events, snapshot is at %d" s.Tf.lines at)
  | Ok s ->
    Ok
      {
        tail = Ormp_util.Vec.to_array tail;
        count = s.Tf.lines;
        crc_at = !crc_at;
        r_crc = !crc;
        sound = s.Tf.sound;
        truncated = s.Tf.torn;
      }
