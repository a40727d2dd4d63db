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
  fun ev ->
    clear b;
    render b ev;
    output oc b.bytes 0 b.len

let save path events =
  let oc = open_out path in
  let sink = writer oc in
  Array.iter sink events;
  close_out oc

(* --- parsing ------------------------------------------------------------ *)

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

let rec decimal s i e acc =
  if i = e then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> decimal s (i + 1) e ((acc * 10) + (Char.code c - 48))
    | _ -> -1

(* The integer in [s.[a, e)] as [int_of_string_opt] reads it. Canonical
   decimals — what [render] writes — are read in place; anything else
   (a [+] sign, a base prefix, underscores, 19 or more digits) goes to
   the stdlib reader, so the accepted syntax is exactly [int_of_string]'s. *)
let int_field s a e =
  let neg = a < e && String.unsafe_get s a = '-' in
  let d = if neg then a + 1 else a in
  let v = if d < e && e - d <= 18 then decimal s d e 0 else -1 in
  if v >= 0 then Some (if neg then -v else v) else int_of_string_opt (String.sub s a (e - a))

let parse_line line =
  let s = String.trim line in
  let n = String.length s in
  (* [e1..e5]: where the first five fields end; [n + 1] past the last. *)
  let e1 = field_end s 0 in
  let e2 = next_end s e1 in
  let e3 = next_end s e2 in
  let e4 = next_end s e3 in
  let e5 = next_end s e4 in
  let tag = if e1 = 1 then String.unsafe_get s 0 else ' ' in
  match tag with
  | 'A' when e5 = n -> (
    let store = if e5 - e4 = 2 then String.unsafe_get s (e4 + 1) else ' ' in
    match (int_field s (e1 + 1) e2, int_field s (e2 + 1) e3, int_field s (e3 + 1) e4, store) with
    | Some instr, Some addr, Some size, ('0' | '1') ->
      Ok (Event.Access { instr; addr; size; is_store = store = '1' })
    | _ -> Error "malformed access")
  | '+' when e4 <= n -> (
    (* Every field after the fourth is the type name, spaces and all. *)
    let type_name =
      if e4 = n then None
      else match String.sub s (e4 + 1) (n - e4 - 1) with "-" -> None | t -> Some t
    in
    match (int_field s (e1 + 1) e2, int_field s (e2 + 1) e3, int_field s (e3 + 1) e4) with
    | Some site, Some addr, Some size -> Ok (Event.Alloc { site; addr; size; type_name })
    | _ -> Error "malformed alloc")
  | '-' when e1 < n && e2 = n -> (
    match int_field s (e1 + 1) e2 with
    | Some addr -> Ok (Event.Free { addr; site = None })
    | None -> Error "malformed free")
  | '-' when e2 < n && e3 = n -> (
    match (int_field s (e1 + 1) e2, int_field s (e2 + 1) e3) with
    | Some addr, Some site -> Ok (Event.Free { addr; site = Some site })
    | _ -> Error "malformed free")
  | _ -> Error "unrecognized event"

(* --- replay ------------------------------------------------------------- *)

let default_truncation_warning msg = Ormp_telemetry.Log.warnf ~src:"trace" "%s" msg

let replay ?(on_truncated = default_truncation_warning) path sink =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic -> (
    let finish r =
      close_in ic;
      r
    in
    (* lint:allow blocking-io — replay reads a recorded regular file *)
    match input_line ic with
    | exception End_of_file -> finish (Error "empty trace file")
    | first when String.trim first <> header ->
      (* lint:allow hot-path-alloc — an error message, built once per failed replay *)
      finish (Error (Printf.sprintf "bad header %S" first))
    | _ ->
      let len = in_channel_length ic in
      (* A record that fails to parse, sits at the very end of the file, and
         lacks its terminating newline is the signature of a torn write (the
         process died mid-[write_event]). Every complete record before it is
         intact, so warn and deliver those rather than rejecting the trace. *)
      let torn_tail () = pos_in ic >= len && len > 0 && (seek_in ic (len - 1); input_char ic <> '\n') in
      let count = ref 0 in
      let lineno = ref 1 in
      let rec go () =
        (* lint:allow blocking-io — same regular trace file as above *)
        match input_line ic with
        | exception End_of_file -> Ok !count
        | line when String.trim line = "" -> go ()
        | line -> (
          incr lineno;
          match parse_line line with
          | Ok ev ->
            sink ev;
            incr count;
            go ()
          | Error msg ->
            if torn_tail () then begin
              on_truncated
                (* lint:allow hot-path-alloc — the one warning of a torn trace *)
                (Printf.sprintf "%s: truncated final record at line %d (%s); keeping %d events"
                   path !lineno msg !count);
              Ok !count
            end
            (* lint:allow hot-path-alloc — an error message, built once per failed replay *)
            else Error (Printf.sprintf "line %d: %s" !lineno msg))
      in
      finish (go ()))

let load path =
  let buf = Ormp_util.Vec.create () in
  match replay path (Ormp_util.Vec.push buf) with
  | Ok _ -> Ok (Ormp_util.Vec.to_array buf)
  | Error _ as e -> e
