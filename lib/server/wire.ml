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

(* Session rows beyond this are cut (and the frame flagged truncated) so
   a crowded daemon's Stats reply can never outgrow [max_frame]. *)
let max_stats_rows = 2048

(* --- encoding ----------------------------------------------------------- *)

let add_i64 b v = Buffer.add_int64_be b (Int64.of_int v)
let add_u32 b v = Buffer.add_int32_be b (Int32.of_int v)

let add_str16 b s =
  if String.length s > 0xFFFF then invalid_arg "Wire: string field too long";
  Buffer.add_uint16_be b (String.length s);
  Buffer.add_string b s

let add_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

(* Stats payload, after the 'U' tag: u8 layout version, then the daemon
   gauges (floats as raw IEEE bits, counts as i64), a truncation flag,
   the session rows, and the three registry tables, each length-prefixed
   with a u32 count. *)
let add_stats b (s : Stats.t) =
  Buffer.add_uint8 b Stats.version;
  add_f64 b s.Stats.s_wall_s;
  add_f64 b s.Stats.s_events_per_sec;
  add_f64 b s.Stats.s_pool_occupancy;
  add_i64 b s.Stats.s_sessions_live;
  add_i64 b s.Stats.s_sessions_started;
  add_i64 b s.Stats.s_sessions_resumed;
  add_i64 b s.Stats.s_sheds;
  add_i64 b s.Stats.s_protocol_errors;
  add_i64 b s.Stats.s_deadline_kills;
  add_i64 b s.Stats.s_events_total;
  add_i64 b s.Stats.s_wal_bytes;
  add_i64 b s.Stats.s_out_backlog;
  add_i64 b s.Stats.s_out_backlog_hw;
  add_i64 b s.Stats.s_grammar_symbols;
  add_i64 b s.Stats.s_grammar_budget;
  add_i64 b s.Stats.s_flight_events;
  add_i64 b s.Stats.s_flight_dropped;
  add_i64 b s.Stats.s_flight_dumps;
  let nrows = List.length s.Stats.s_rows in
  let truncated = s.Stats.s_rows_truncated || nrows > max_stats_rows in
  Buffer.add_uint8 b (Bool.to_int truncated);
  add_u32 b (min nrows max_stats_rows);
  List.iteri
    (fun i (r : Stats.row) ->
      if i < max_stats_rows then begin
        add_str16 b r.Stats.r_token;
        add_str16 b r.Stats.r_workload;
        add_i64 b r.Stats.r_position;
        add_i64 b r.Stats.r_journal_bytes;
        add_i64 b r.Stats.r_journal_lag;
        add_f64 b r.Stats.r_events_per_sec;
        add_f64 b r.Stats.r_ack_p50_ms;
        add_f64 b r.Stats.r_ack_p99_ms;
        add_f64 b r.Stats.r_ring_occupancy
      end)
    s.Stats.s_rows;
  add_u32 b (List.length s.Stats.s_counters);
  List.iter
    (fun (n, v) ->
      add_str16 b n;
      add_i64 b v)
    s.Stats.s_counters;
  add_u32 b (List.length s.Stats.s_gauges);
  List.iter
    (fun (n, v) ->
      add_str16 b n;
      add_f64 b v)
    s.Stats.s_gauges;
  add_u32 b (List.length s.Stats.s_hists);
  List.iter
    (fun (n, (h : Stats.hist)) ->
      add_str16 b n;
      add_i64 b h.Stats.count;
      add_f64 b h.Stats.sum;
      add_f64 b h.Stats.min;
      add_f64 b h.Stats.max;
      add_f64 b h.Stats.p50;
      add_f64 b h.Stats.p90;
      add_f64 b h.Stats.p99)
    s.Stats.s_hists

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
  | Stats s ->
    let b = Buffer.create 1024 in
    Buffer.add_char b 'U';
    add_stats b s;
    Buffer.contents b
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

let get_stats c : Stats.t =
  let v = get_u8 c in
  if v <> Stats.version then
    raise (Bad (Printf.sprintf "unsupported stats version %d (want %d)" v Stats.version));
  let s_wall_s = get_f64 c in
  let s_events_per_sec = get_f64 c in
  let s_pool_occupancy = get_f64 c in
  let s_sessions_live = get_i64 c in
  let s_sessions_started = get_i64 c in
  let s_sessions_resumed = get_i64 c in
  let s_sheds = get_i64 c in
  let s_protocol_errors = get_i64 c in
  let s_deadline_kills = get_i64 c in
  let s_events_total = get_i64 c in
  let s_wal_bytes = get_i64 c in
  let s_out_backlog = get_i64 c in
  let s_out_backlog_hw = get_i64 c in
  let s_grammar_symbols = get_i64 c in
  let s_grammar_budget = get_i64 c in
  let s_flight_events = get_i64 c in
  let s_flight_dropped = get_i64 c in
  let s_flight_dumps = get_i64 c in
  let s_rows_truncated = get_u8 c <> 0 in
  let nrows = get_u32 c in
  if nrows > max_stats_rows then raise (Bad "bad stats row count");
  let rows =
    Array.init nrows (fun _ ->
        let r_token = get_str16 c in
        let r_workload = get_str16 c in
        let r_position = get_i64 c in
        let r_journal_bytes = get_i64 c in
        let r_journal_lag = get_i64 c in
        let r_events_per_sec = get_f64 c in
        let r_ack_p50_ms = get_f64 c in
        let r_ack_p99_ms = get_f64 c in
        let r_ring_occupancy = get_f64 c in
        {
          Stats.r_token;
          r_workload;
          r_position;
          r_journal_bytes;
          r_journal_lag;
          r_events_per_sec;
          r_ack_p50_ms;
          r_ack_p99_ms;
          r_ring_occupancy;
        })
  in
  (* Each registry entry consumes at least two bytes, so any genuine
     count is below the bytes left; checking that before Array.init
     keeps a corrupt-yet-CRC-valid count from allocating a wild array. *)
  let get_count () =
    let n = get_u32 c in
    if n > c.lim - c.pos then raise (Bad "bad stats table count");
    n
  in
  let ncounters = get_count () in
  let counters =
    Array.init ncounters (fun _ ->
        let n = get_str16 c in
        (n, get_i64 c))
  in
  let ngauges = get_count () in
  let gauges =
    Array.init ngauges (fun _ ->
        let n = get_str16 c in
        (n, get_f64 c))
  in
  let nhists = get_count () in
  let hists =
    Array.init nhists (fun _ ->
        let n = get_str16 c in
        let count = get_i64 c in
        let sum = get_f64 c in
        let min = get_f64 c in
        let max = get_f64 c in
        let p50 = get_f64 c in
        let p90 = get_f64 c in
        let p99 = get_f64 c in
        (n, { Stats.count; sum; min; max; p50; p90; p99 }))
  in
  {
    Stats.s_wall_s;
    s_events_per_sec;
    s_pool_occupancy;
    s_sessions_live;
    s_sessions_started;
    s_sessions_resumed;
    s_sheds;
    s_protocol_errors;
    s_deadline_kills;
    s_events_total;
    s_wal_bytes;
    s_out_backlog;
    s_out_backlog_hw;
    s_grammar_symbols;
    s_grammar_budget;
    s_flight_events;
    s_flight_dropped;
    s_flight_dumps;
    s_rows_truncated;
    s_rows = Array.to_list rows;
    s_counters = Array.to_list counters;
    s_gauges = Array.to_list gauges;
    s_hists = Array.to_list hists;
  }

(* An [Ev] payload is one journal line, exactly as the renderer writes
   it: one newline, at the end, and the bytes of the event it parses to.
   Anything else (a type name holding a newline, a trimmed blank, a [""]
   name that reads back as none, a non-decimal integer) could not be
   journaled and replayed as the event the client meant, so it is a
   protocol error before anything is journaled. *)
let rec index_newline b i e = if i = e || Bytes.unsafe_get b i = '\n' then i else index_newline b (i + 1) e

let rec equal_sub a ao b bo n =
  n = 0 || (Bytes.unsafe_get a ao = Bytes.unsafe_get b bo && equal_sub a (ao + 1) b (bo + 1) (n - 1))

let get_event c line =
  let a = c.pos and e = c.lim in
  if index_newline c.b a e <> e - 1 then raise (Bad "bad event payload: not one line");
  match Tf.parse_line (Bytes.sub_string c.b a (e - 1 - a)) with
  | Error msg -> raise (Bad ("bad event payload: " ^ msg))
  | Ok ev ->
    Tf.clear line;
    Tf.render line ev;
    if not (Tf.length line = e - a && equal_sub (Tf.bytes line) 0 c.b a (e - a)) then
      raise (Bad "bad event payload: not canonical");
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

let parse c ~line =
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
    finish (Ev { position; event = get_event c line })
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
  | 'U' -> finish (Stats (get_stats c))
  | t -> raise (Bad (Printf.sprintf "unknown frame tag %C" t))

(* --- incremental decoding ----------------------------------------------- *)

(* Unread bytes are [buf.[off, len)]; see the header for the policy. *)
type decoder = {
  mutable buf : Bytes.t;
  mutable off : int;
  mutable len : int;
  line : Tf.buffer;  (* an [Ev]'s line re-rendered, for the canonical check *)
}

let decoder () = { buf = Bytes.create 4096; off = 0; len = 0; line = Tf.buffer () }

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
        match parse { b = d.buf; pos = p; lim = p + n } ~line:d.line with
        | msg -> Ok (Some msg)
        | exception Bad e -> Error e
    end
  end
