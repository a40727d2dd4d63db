(* lint:hot-path *)

module Decimal = Ormp_util.Decimal

let header = "ormp-trace 1"

(* --- rendering ---------------------------------------------------------- *)

(* Every journal line and every wire [Ev] payload is rendered here, into a
   buffer the caller reuses: integers go straight into its bytes through
   [Decimal], so a line costs no allocation once the buffer has grown to
   fit. *)
type buffer = { mutable bytes : Bytes.t; mutable len : int }

let buffer () = { bytes = Bytes.create 256; len = 0 }
let clear b = b.len <- 0
let length b = b.len
let bytes b = b.bytes

let reserve b n =
  if b.len + n > Bytes.length b.bytes then begin
    let cap = ref (2 * Bytes.length b.bytes) in
    while b.len + n > !cap do
      cap := 2 * !cap
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit b.bytes 0 bigger 0 b.len;
    b.bytes <- bigger
  end

(* A tag, three space-separated integers and the separator after them:
   room for everything in a line but its last field. *)
let fields_room = 2 + (3 * (Decimal.max_length + 1))

let put_char b p c =
  Bytes.unsafe_set b.bytes p c;
  p + 1

(* [" " n] at [p]; the caller has reserved the room. *)
let put_field b p n = Decimal.write b.bytes (put_char b p ' ') n

let render_access b ~instr ~addr ~size ~is_store =
  reserve b (fields_room + 2);
  let p = put_char b b.len 'A' in
  let p = put_field b p instr in
  let p = put_field b p addr in
  let p = put_field b p size in
  let p = put_char b p ' ' in
  let p = put_char b p (if is_store then '1' else '0') in
  b.len <- put_char b p '\n'

let render b (ev : Event.t) =
  match ev with
  | Access { instr; addr; size; is_store } -> render_access b ~instr ~addr ~size ~is_store
  | Alloc { site; addr; size; type_name } ->
    let name = match type_name with None -> "-" | Some t -> t in
    let n = String.length name in
    reserve b (fields_room + n + 1);
    let p = put_char b b.len '+' in
    let p = put_field b p site in
    let p = put_field b p addr in
    let p = put_field b p size in
    let p = put_char b p ' ' in
    Bytes.unsafe_blit_string name 0 b.bytes p n;
    b.len <- put_char b (p + n) '\n'
  | Free { addr; site } ->
    reserve b (fields_room + 1);
    let p = put_char b b.len '-' in
    let p = put_field b p addr in
    let p = match site with None -> p | Some site -> put_field b p site in
    b.len <- put_char b p '\n'

let event_line ev =
  let b = buffer () in
  render b ev;
  Bytes.sub_string b.bytes 0 b.len

let writer oc =
  output_string oc header;
  output_char oc '\n';
  let b = buffer () in
  (* [write] renders [x]'s lines into the buffer, which goes out whole. *)
  let emit write x =
    clear b;
    write b x;
    output oc b.bytes 0 b.len
  in
  Batch.create
    ~on_chunk:(emit (fun b c -> Batch.iter c (render_access b)))
    ~on_event:(emit render) ()

let save path events =
  let oc = open_out path in
  let w = writer oc in
  Array.iter (Batch.event w) events;
  Batch.flush w;
  close_out oc

(* --- parsing ------------------------------------------------------------ *)

(* A line is accepted iff it is exactly what [render] writes for the event
   it denotes, so a line's bytes are its rendering's bytes and readers may
   CRC them as read. *)

(* A line splits into fields at single spaces, exactly as
   [String.split_on_char ' '] would split it (so doubled spaces make empty
   fields, which no integer parses). [field_end s i] is the end of the
   field starting at [i]. *)
let rec field_end s i =
  if i >= String.length s || String.unsafe_get s i = ' ' then i else field_end s (i + 1)

(* The end of the field after the one ending at [e]; [n + 1] once there
   is none. *)
let next_end s e =
  let n = String.length s in
  if e >= n then n + 1 else field_end s (e + 1)

(* What [String.trim] strips: a type name may not end in one, because a
   reader that trimmed the line would lose it. *)
let is_blank = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

let parse_line s =
  let n = String.length s in
  (* [e1..e4]: where the first four fields end; [n + 1] past the last. A
     field [k] lies in bounds once [e(k-1) < n]. *)
  let e1 = field_end s 0 in
  let e2 = next_end s e1 in
  let e3 = next_end s e2 in
  let e4 = next_end s e3 in
  let tag = if e1 = 1 then String.unsafe_get s 0 else ' ' in
  match tag with
  | 'A' when e4 < n && field_end s (e4 + 1) = n -> (
    let store = if n - e4 = 2 then String.unsafe_get s (e4 + 1) else ' ' in
    match
      (Decimal.parse s (e1 + 1) e2, Decimal.parse s (e2 + 1) e3, Decimal.parse s (e3 + 1) e4)
    with
    | instr, addr, size when store = '0' || store = '1' ->
      Ok (Event.Access { instr; addr; size; is_store = store = '1' })
    | _ | (exception Decimal.Not_canonical) -> Error "malformed access")
  | '+' when e4 + 1 < n && not (is_blank (String.unsafe_get s (n - 1))) -> (
    (* Everything after the fourth field is the type name, spaces and all. *)
    let type_name =
      if n - e4 = 2 && String.unsafe_get s (e4 + 1) = '-' then None
      else Some (String.sub s (e4 + 1) (n - e4 - 1))
    in
    match
      (Decimal.parse s (e1 + 1) e2, Decimal.parse s (e2 + 1) e3, Decimal.parse s (e3 + 1) e4)
    with
    | site, addr, size -> Ok (Event.Alloc { site; addr; size; type_name })
    | exception Decimal.Not_canonical -> Error "malformed alloc")
  | '-' when e1 < n && e2 = n -> (
    match Decimal.parse s (e1 + 1) e2 with
    | addr -> Ok (Event.Free { addr; site = None })
    | exception Decimal.Not_canonical -> Error "malformed free")
  | '-' when e2 < n && e3 = n -> (
    match (Decimal.parse s (e1 + 1) e2, Decimal.parse s (e2 + 1) e3) with
    | addr, site -> Ok (Event.Free { addr; site = Some site })
    | exception Decimal.Not_canonical -> Error "malformed free")
  | _ -> Error "unrecognized event"

(* --- reading ------------------------------------------------------------ *)

type scan = { lines : int; sound : int; torn : bool }

let scan ?(skip = 0) ?(line = ignore) path sink =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    (* A line read at [sound] that ends at [pos_in ic] had its newline iff
       the position moved past it. *)
    let read sound =
      (* lint:allow blocking-io — reads a regular trace file *)
      match input_line ic with
      | exception End_of_file -> None
      | l -> Some (l, pos_in ic > sound + String.length l)
    in
    (* [n]: the complete lines after the header so far, which end at [sound]. *)
    let rec go n sound =
      match read sound with
      | None -> Ok { lines = n; sound; torn = false }
      | Some (_, false) -> Ok { lines = n; sound; torn = true }
      | Some (l, true) -> (
        line l;
        if n < skip then go (n + 1) (pos_in ic)
        else
          match parse_line l with
          | Ok ev ->
            sink ev;
            go (n + 1) (pos_in ic)
          (* lint:allow hot-path-alloc — an error message, built once per failed read *)
          | Error msg -> Error (Printf.sprintf "line %d: %s" (n + 2) msg))
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    match read 0 with
    | None -> Error "empty trace file"
    | Some (h, true) when h = header -> go 0 (pos_in ic)
    (* lint:allow hot-path-alloc — an error message, built once per failed read *)
    | Some (h, _) -> Error (Printf.sprintf "bad header %S" h)

let default_truncation_warning msg = Ormp_telemetry.Log.warnf ~src:"trace" "%s" msg

let replay ?(on_truncated = default_truncation_warning) path sink =
  match scan path sink with
  | Error _ as e -> e
  | Ok s ->
    if s.torn then
      on_truncated
        (* lint:allow hot-path-alloc — the one warning of a torn trace *)
        (Printf.sprintf "%s: dropped a torn final record at byte %d (no newline); keeping %d events"
           path s.sound s.lines);
    Ok s.lines

let load path =
  let buf = Ormp_util.Vec.create () in
  match replay path (Ormp_util.Vec.push buf) with
  | Ok _ -> Ok (Ormp_util.Vec.to_array buf)
  | Error _ as e -> e
