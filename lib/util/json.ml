(* Minimal JSON: just enough to emit the telemetry exports (metrics
   snapshots, the daemon's Stats snapshot, Chrome trace-event files) and
   the bench harness's BENCH_ormp.json, and to parse them back — the repo
   deliberately carries no JSON dependency.

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

(* The parser recurses once per nesting level, and the daemon parses
   what clients send, so deeper documents are refused. Everything the
   repo writes nests four levels or fewer. *)
let max_depth = 64

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
          let hex = String.sub s (!pos + 1) 4 in
          if not (String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) hex)
          then fail "bad \\u escape";
          add_utf8 (int_of_string ("0x" ^ hex));
          pos := !pos + 4
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
  (* RFC 8259's grammar: [-]? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let from = !pos in
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = from then fail "bad number"
    in
    if peek () = Some '-' then advance ();
    (match peek () with Some '0' -> advance () | _ -> digits ());
    let frac = peek () = Some '.' in
    if frac then begin
      advance ();
      digits ()
    end;
    let exp = match peek () with Some ('e' | 'E') -> true | _ -> false in
    if exp then begin
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    (* [%.6g] prints -0.0 as "-0", which no integer renders to. *)
    if lit = "-0" then Float (-0.0)
    else if frac || exp then Float (float_of_string lit)
    else match int_of_string_opt lit with Some i -> Int i | None -> Float (float_of_string lit)
  in
  (* [depth] lists and objects enclose the value being parsed. *)
  let enter depth =
    if depth >= max_depth then fail (Printf.sprintf "nesting deeper than %d" max_depth);
    advance ()
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      enter depth;
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          items := parse_value (depth + 1) :: !items;
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
      enter depth;
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
          let v = parse_value (depth + 1) in
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
    let v = parse_value 0 in
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

(* --- decoding ------------------------------------------------------------ *)

(* A decoder reads a document the way its encoder built it: an object's
   members one by one in the encoder's order, then nothing more. The
   first value it meets that the encoder could not have written raises
   [Mismatch], which [decode] turns into one [Error]. *)
exception Mismatch of string

let mismatch what j =
  let s = to_string j in
  let s = if String.length s > 40 then String.sub s 0 40 ^ "..." else s in
  raise (Mismatch (Printf.sprintf "expected %s, found %s" what s))

let decode read j = try Ok (read j) with Mismatch m -> Error m
let fail m = raise (Mismatch m)

type members = (string * t) list ref

let obj = function Obj members -> ref members | j -> mismatch "an object" j

let field (r : members) name read =
  match !r with
  | (k, v) :: rest when k = name ->
    r := rest;
    (try read v with Mismatch m -> raise (Mismatch (name ^ ": " ^ m)))
  | (k, _) :: _ -> raise (Mismatch (Printf.sprintf "expected member %S, found %S" name k))
  | [] -> raise (Mismatch (Printf.sprintf "expected member %S, found the end" name))

let close (r : members) =
  match !r with
  | [] -> ()
  | (k, _) :: _ -> raise (Mismatch (Printf.sprintf "unexpected member %S" k))

let int = function Int n -> n | j -> mismatch "an integer" j

(* [to_buf] writes every non-finite float as null. *)
let number = function
  | Float f -> f
  | Int n -> float_of_int n
  | Null -> Float.nan
  | j -> mismatch "a number" j

let string = function String s -> s | j -> mismatch "a string" j
let bool = function Bool b -> b | j -> mismatch "a boolean" j
let list read = function List xs -> List.map read xs | j -> mismatch "a list" j

let pairs read = function
  | Obj members ->
    List.map
      (fun (k, v) -> (k, try read v with Mismatch m -> raise (Mismatch (k ^ ": " ^ m))))
      members
  | j -> mismatch "an object" j
