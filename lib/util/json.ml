(* Minimal JSON: just enough to emit the telemetry exports (metrics
   snapshots, Chrome trace-event files) and the bench harness's
   BENCH_ormp.json, and to parse them back for validation and the perf
   guard — the repo deliberately carries no JSON dependency.

   Emission notes: non-finite floats have no JSON encoding and render as
   null; object member order is preserved. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- emission --------------------------------------------------------- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec to_buf buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    if Float.is_nan f || Float.abs f = Float.infinity then Buffer.add_string buf "null"
    else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | String s -> escape_into buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        to_buf buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_into buf k;
        Buffer.add_char buf ':';
        to_buf buf v)
      fields;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  to_buf buf t;
  Buffer.contents buf

(* --- parsing ---------------------------------------------------------- *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      value
    end
    else fail ("bad literal " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let add_utf8 cp =
      (* Enough of an encoder for the escapes our own emitter produces and
         the BMP codepoints a hand-written trace might carry. *)
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
          | Some cp ->
            add_utf8 cp;
            pos := !pos + 4
          | None -> fail "bad \\u escape")
        | _ -> fail "bad escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lit then
      match float_of_string_opt lit with Some f -> Float f | None -> fail "bad number"
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt lit with Some f -> Float f | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          items := parse_value () :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            go ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        go ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec go () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            go ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        go ();
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors -------------------------------------------------------- *)

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_str = function String s -> Some s | _ -> None
