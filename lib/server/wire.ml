(* Frame codec for `ormp serve`. See the mli for the wire layout.

   Data frames are the serving path's bulk: a churn session (alloc/free
   every few accesses) sends one frame per 2.9 events, 18,050 frames for
   its 52k events at seed 1, so the codec is costed per event. [Batch] and
   [Ev] frames are written straight into one exact-size buffer, lane
   values and the event line (through {!Ormp_trace.Trace_file.render})
   rendered in place, and the CRC taken over that buffer. The decoder
   keeps a read offset into one growable buffer: [next] parses each frame
   where it lies and only advances the offset, and [feed] compacts the
   unread tail once per call, so a 64 KiB read holding k frames costs one
   blit, not k. On the serve-churn benchmark (traced, 2-vCPU host, four
   pairs) encode went from 387-526 to 120-150 ns per event and decode
   from 268-359 to 228-261 ns. The other messages are rare and go
   through a [Buffer]. *)

module Batch = Ormp_trace.Batch
module Event = Ormp_trace.Event
module Tf = Ormp_trace.Trace_file
module Crc32 = Ormp_util.Crc32

type msg =
  | Hello of { token : string; workload : string; ack_every : int }
  | Hello_ok of { fresh : bool; complete : bool; position : int }
  | Shed of { retry_after_s : float; reason : string }
  | Err of string
  | Batch of { start : int; chunk : Batch.chunk }
  | Ev of { position : int; event : Event.t }
  | Finish of { position : int }
  | Finish_ok of { position : int; collected : int; wild : int }
  | Ack of { position : int }
  | Ping
  | Pong
  | Stats_req
  | Stats of Stats.t

let max_frame = 1 lsl 20

(* The length field bounds the count field transitively, but a direct cap
   keeps a corrupt-yet-CRC-valid count from allocating wild arrays. *)
let max_batch = 65536

(* --- encoding ----------------------------------------------------------- *)

let add_i64 b v = Buffer.add_int64_be b (Int64.of_int v)

let add_str16 b s =
  if String.length s > 0xFFFF then invalid_arg "Wire: string field too long";
  Buffer.add_uint16_be b (String.length s);
  Buffer.add_string b s

(* A Stats frame's payload after its tag: the snapshot's JSON text, cut
   to fit the frame. *)
let stats_json s = Stats.to_string ~max_bytes:(max_frame - 1) s

let payload = function
  | Hello { token; workload; ack_every } ->
    let b = Buffer.create 64 in
    Buffer.add_char b 'H';
    add_str16 b token;
    add_str16 b workload;
    add_i64 b ack_every;
    Buffer.contents b
  | Hello_ok { fresh; complete; position } ->
    let b = Buffer.create 16 in
    Buffer.add_char b 'O';
    Buffer.add_uint8 b (Bool.to_int fresh);
    Buffer.add_uint8 b (Bool.to_int complete);
    add_i64 b position;
    Buffer.contents b
  | Shed { retry_after_s; reason } ->
    let b = Buffer.create 32 in
    Buffer.add_char b 'S';
    Buffer.add_int64_be b (Int64.bits_of_float retry_after_s);
    add_str16 b reason;
    Buffer.contents b
  | Err m ->
    let b = Buffer.create 32 in
    Buffer.add_char b 'E';
    add_str16 b m;
    Buffer.contents b
  | Finish { position } ->
    let b = Buffer.create 16 in
    Buffer.add_char b 'F';
    add_i64 b position;
    Buffer.contents b
  | Finish_ok { position; collected; wild } ->
    let b = Buffer.create 32 in
    Buffer.add_char b 'G';
    add_i64 b position;
    add_i64 b collected;
    add_i64 b wild;
    Buffer.contents b
  | Ack { position } ->
    let b = Buffer.create 16 in
    Buffer.add_char b 'A';
    add_i64 b position;
    Buffer.contents b
  | Ping -> "P"
  | Pong -> "Q"
  | Stats_req -> "T"
  | Stats s -> "U" ^ stats_json s
  | Batch _ | Ev _ -> assert false (* encoded in place below *)

(* A frame of [n] payload bytes: the length field written, the payload
   and the CRC trailer left to the caller. *)
let frame n =
  if n = 0 || n > max_frame then invalid_arg "Wire.encode: bad payload size";
  let f = Bytes.create (n + 8) in
  Bytes.set_int32_be f 0 (Int32.of_int n);
  f

let seal f =
  let n = Bytes.length f - 8 in
  Bytes.set_int32_be f (4 + n) (Int32.of_int (Crc32.update_sub 0 f 4 n));
  Bytes.unsafe_to_string f

(* The lanes, each a run of fixed-width big-endian fields. *)
let encode_batch start (c : Batch.chunk) =
  let n = c.Batch.len in
  if n > max_batch then invalid_arg "Wire: oversized batch";
  let f = frame (13 + (n * 21)) in
  Bytes.set f 4 'B';
  Bytes.set_int64_be f 5 (Int64.of_int start);
  Bytes.set_int32_be f 13 (Int32.of_int n);
  let o = 17 in
  for i = 0 to n - 1 do
    Bytes.set_int64_be f (o + (8 * i)) (Int64.of_int c.Batch.instr.(i))
  done;
  let o = o + (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_be f (o + (8 * i)) (Int64.of_int c.Batch.addr.(i))
  done;
  let o = o + (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int32_be f (o + (4 * i)) (Int32.of_int c.Batch.size.(i))
  done;
  let o = o + (4 * n) in
  for i = 0 to n - 1 do
    Bytes.unsafe_set f (o + i) (if c.Batch.store.(i) <> 0 then '\001' else '\000')
  done;
  seal f

(* Each domain that encodes renders its event lines into its own buffer
   (the daemon and every client encode at once). *)
let ev_line = Domain.DLS.new_key Tf.buffer

let encode_ev position event =
  let line = Domain.DLS.get ev_line in
  Tf.clear line;
  Tf.render line event;
  let n = Tf.length line in
  let f = frame (9 + n) in
  Bytes.set f 4 'V';
  Bytes.set_int64_be f 5 (Int64.of_int position);
  Bytes.blit (Tf.bytes line) 0 f 13 n;
  seal f

let encode = function
  | Batch { start; chunk } -> encode_batch start chunk
  | Ev { position; event } -> encode_ev position event
  | msg ->
    let p = payload msg in
    let n = String.length p in
    let f = frame n in
    Bytes.blit_string p 0 f 4 n;
    seal f

(* --- payload parsing ---------------------------------------------------- *)

exception Bad of string

(* A frame's payload, parsed where it lies in the decoder's buffer. *)
type cursor = { b : Bytes.t; mutable pos : int; lim : int }

let need c n what = if c.pos + n > c.lim then raise (Bad ("truncated " ^ what))

let get_i64 c =
  need c 8 "integer";
  let v = Int64.to_int (Bytes.get_int64_be c.b c.pos) in
  c.pos <- c.pos + 8;
  v

(* Raw 64-bit read: [get_i64] narrows to the native 63-bit int, which
   would corrupt the high exponent bits of an IEEE double. *)
let get_f64 c =
  need c 8 "float";
  let v = Int64.float_of_bits (Bytes.get_int64_be c.b c.pos) in
  c.pos <- c.pos + 8;
  v

let u32_at b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

let get_u32 c =
  need c 4 "integer";
  let v = u32_at c.b c.pos in
  c.pos <- c.pos + 4;
  v

let get_u8 c =
  need c 1 "byte";
  let v = Bytes.get_uint8 c.b c.pos in
  c.pos <- c.pos + 1;
  v

let get_str16 c =
  need c 2 "string length";
  let n = Bytes.get_uint16_be c.b c.pos in
  c.pos <- c.pos + 2;
  need c n "string";
  let v = Bytes.sub_string c.b c.pos n in
  c.pos <- c.pos + n;
  v

(* An [Ev] payload is one journal line: one newline, at the end, before
   which {!Ormp_trace.Trace_file.parse_line} accepts the bytes — exactly
   the lines the renderer writes. Anything else (a type name holding a
   newline, trailing blanks, a [""] name, a non-decimal integer) could
   not be journaled and replayed as the event the client meant, so it is
   a protocol error before anything is journaled. *)
let rec index_newline b i e = if i = e || Bytes.unsafe_get b i = '\n' then i else index_newline b (i + 1) e

let get_event c =
  let a = c.pos and e = c.lim in
  if index_newline c.b a e <> e - 1 then raise (Bad "bad event payload: not one line");
  match Tf.parse_line (Bytes.sub_string c.b a (e - 1 - a)) with
  | Error msg -> raise (Bad ("bad event payload: " ^ msg))
  | Ok ev ->
    c.pos <- e;
    ev

let get_batch c =
  let start = get_i64 c in
  let n = get_u32 c in
  if n = 0 || n > max_batch then raise (Bad "bad batch count");
  need c (21 * n) "batch";
  let b = c.b and o = c.pos in
  let instr = Array.make n 0 and addr = Array.make n 0 in
  let size = Array.make n 0 and store = Array.make n 0 in
  for i = 0 to n - 1 do
    instr.(i) <- Int64.to_int (Bytes.get_int64_be b (o + (8 * i)))
  done;
  let o = o + (8 * n) in
  for i = 0 to n - 1 do
    addr.(i) <- Int64.to_int (Bytes.get_int64_be b (o + (8 * i)))
  done;
  let o = o + (8 * n) in
  for i = 0 to n - 1 do
    size.(i) <- u32_at b (o + (4 * i))
  done;
  let o = o + (4 * n) in
  for i = 0 to n - 1 do
    store.(i) <- Bytes.get_uint8 b (o + i)
  done;
  c.pos <- o + n;
  Batch { start; chunk = { Batch.instr; addr; size; store; len = n } }

let parse c =
  let finish msg =
    if c.pos <> c.lim then raise (Bad "trailing payload bytes");
    msg
  in
  let tag = Bytes.get c.b c.pos in
  c.pos <- c.pos + 1;
  match tag with
  | 'H' ->
    let token = get_str16 c in
    let workload = get_str16 c in
    let ack_every = get_i64 c in
    finish (Hello { token; workload; ack_every })
  | 'O' ->
    let fresh = get_u8 c <> 0 in
    let complete = get_u8 c <> 0 in
    let position = get_i64 c in
    finish (Hello_ok { fresh; complete; position })
  | 'S' ->
    let retry_after_s = get_f64 c in
    let reason = get_str16 c in
    finish (Shed { retry_after_s; reason })
  | 'E' -> finish (Err (get_str16 c))
  | 'B' -> finish (get_batch c)
  | 'V' ->
    let position = get_i64 c in
    finish (Ev { position; event = get_event c })
  | 'F' -> finish (Finish { position = get_i64 c })
  | 'G' ->
    let position = get_i64 c in
    let collected = get_i64 c in
    let wild = get_i64 c in
    finish (Finish_ok { position; collected; wild })
  | 'A' -> finish (Ack { position = get_i64 c })
  | 'P' -> finish Ping
  | 'Q' -> finish Pong
  | 'T' -> finish Stats_req
  | 'U' -> (
    match Stats.of_string (Bytes.sub_string c.b c.pos (c.lim - c.pos)) with
    | Ok s -> Stats s
    | Error e -> raise (Bad ("bad stats payload: " ^ e)))
  | t -> raise (Bad (Printf.sprintf "unknown frame tag %C" t))

(* --- incremental decoding ----------------------------------------------- *)

(* Unread bytes are [buf.[off, len)]; see the header for the policy. *)
type decoder = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

let decoder () = { buf = Bytes.create 4096; off = 0; len = 0 }

let buffered d = d.len - d.off

let feed d src off n =
  if off < 0 || n < 0 || off + n > Bytes.length src then invalid_arg "Wire.feed";
  let live = d.len - d.off in
  if d.off > 0 then begin
    Bytes.blit d.buf d.off d.buf 0 live;
    d.off <- 0;
    d.len <- live
  end;
  let need = live + n in
  if need > Bytes.length d.buf then begin
    let cap = ref (Bytes.length d.buf) in
    while !cap < need do
      cap := !cap * 2
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit d.buf 0 bigger 0 live;
    d.buf <- bigger
  end;
  Bytes.blit src off d.buf live n;
  d.len <- need

let next d =
  if d.len - d.off < 4 then Ok None
  else begin
    let n = u32_at d.buf d.off in
    if n < 1 || n > max_frame then
      Error (Printf.sprintf "bad frame length %d (max %d)" n max_frame)
    else if d.len - d.off < 4 + n + 4 then Ok None
    else begin
      let p = d.off + 4 in
      let crc = u32_at d.buf (p + n) in
      d.off <- p + n + 4;
      if Crc32.update_sub 0 d.buf p n <> crc then Error "frame CRC mismatch"
      else
        match parse { b = d.buf; pos = p; lim = p + n } with
        | msg -> Ok (Some msg)
        | exception Bad e -> Error e
    end
  end
