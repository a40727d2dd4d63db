(* lint:hot-path *)

type t = Atom of string | List of t list

(* A plain loop: [String.exists] would allocate its inner closure on
   every atom the writer renders. *)
let needs_quoting s =
  let n = String.length s in
  let i = ref 0 in
  while
    !i < n
    &&
    match String.unsafe_get s !i with
    | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | '\\' | ';' -> false
    | _ -> true
  do
    incr i
  done;
  n = 0 || !i < n

(* --- the streaming writer ---------------------------------------------- *)

(* Every persisted format renders through this one writer, straight to its
   destination. Profiles are megabytes of integers: building a [t] first
   would box a string per integer, and choosing each list's layout would
   rescan the list. Instead the encoder declares a list's layout as it
   opens it, and text gathers in a private chunk (integers render straight
   into it through [Decimal]), so a channel sees one [output] per 64 KiB
   instead of one locked call per atom and separator (OCaml 5 locks a
   channel on every call). A writer is owned by the one domain rendering
   with it: all of its state lives in the record, none at module level. *)
module Writer = struct
  type sink = Channel of out_channel | Buf of Buffer.t

  type t = {
    chunk : Bytes.t;
    mutable pos : int;  (* bytes of [chunk] not yet flushed *)
    sink : sink;
    indent : bool;  (* the file layout; false is the compact one *)
    mutable depth : int;  (* lists open *)
    mutable flat_from : int;  (* depth of the outermost open flat list; max_int if none *)
    mutable first : bool;  (* the next element is the first of its list *)
  }

  let chunk_size = 65536

  let make ~indent sink =
    {
      chunk = Bytes.create chunk_size;
      pos = 0;
      sink;
      indent;
      depth = 0;
      flat_from = max_int;
      first = true;
    }

  let flush w =
    if w.pos > 0 then begin
      (match w.sink with
      | Channel oc -> output oc w.chunk 0 w.pos
      | Buf b -> Buffer.add_subbytes b w.chunk 0 w.pos);
      w.pos <- 0
    end

  let put_char w c =
    if w.pos = chunk_size then flush w;
    Bytes.unsafe_set w.chunk w.pos c;
    w.pos <- w.pos + 1

  let put_string w s =
    let n = String.length s in
    if w.pos + n > chunk_size then flush w;
    if n > chunk_size then
      match w.sink with Channel oc -> output_string oc s | Buf b -> Buffer.add_string b s
    else begin
      Bytes.unsafe_blit_string s 0 w.chunk w.pos n;
      w.pos <- w.pos + n
    end

  let put_int w n =
    if w.pos + Decimal.max_length > chunk_size then flush w;
    w.pos <- Decimal.write w.chunk w.pos n

  let put_quoted w s =
    put_char w '"';
    for i = 0 to String.length s - 1 do
      match String.unsafe_get s i with
      | ('"' | '\\') as c ->
        put_char w '\\';
        put_char w c
      | '\n' ->
        put_char w '\\';
        put_char w 'n'
      | c -> put_char w c
    done;
    put_char w '"'

  (* Inside a list, each element after the first is preceded by a space —
     or, in the indented layout and outside any flat list, by a newline
     and two spaces per open list. *)
  let separate w =
    if w.first then w.first <- false
    else if w.depth > 0 then
      if w.indent && w.depth < w.flat_from then begin
        put_char w '\n';
        for _i = 1 to 2 * w.depth do
          put_char w ' '
        done
      end
      else put_char w ' '

  let open_list w ~flat =
    separate w;
    put_char w '(';
    w.depth <- w.depth + 1;
    if flat && w.flat_from = max_int then w.flat_from <- w.depth;
    w.first <- true

  let close w =
    if w.depth = 0 then invalid_arg "Sexp.Writer.close: no open list";
    put_char w ')';
    if w.flat_from = w.depth then w.flat_from <- max_int;
    w.depth <- w.depth - 1;
    w.first <- false

  let atom w s =
    separate w;
    if needs_quoting s then put_quoted w s else put_string w s

  let int w n =
    separate w;
    put_int w n

  let prefixed w c n =
    separate w;
    put_char w c;
    put_int w n

  let nested w name =
    open_list w ~flat:false;
    atom w name

  let flat w name =
    open_list w ~flat:true;
    atom w name

  let int_field w name n =
    flat w name;
    int w n;
    close w

  let finish w =
    if w.depth <> 0 then invalid_arg "Sexp.Writer: unclosed list";
    flush w

  let to_channel oc write x =
    let w = make ~indent:true (Channel oc) in
    write w x;
    put_char w '\n';
    finish w

  let to_file path write x =
    let oc = open_out_bin path in
    match
      to_channel oc write x;
      close_out oc
    with
    | () -> ()
    | exception exn ->
      (* [close_out] raises before closing when its flush fails (a full
         disk), so the descriptor is released here on every path. *)
      close_out_noerr oc;
      raise exn

  let render write x =
    let b = Buffer.create 256 in
    let w = make ~indent:false (Buf b) in
    write w x;
    finish w;
    Buffer.contents b
end

(* A tree renders through the writer like any codec; only here is a
   list's layout read off its contents (a list of atoms stays on one
   line). *)
let rec write w = function
  | Atom s -> Writer.atom w s
  | List xs ->
    Writer.open_list w ~flat:(List.for_all (function Atom _ -> true | List _ -> false) xs);
    List.iter (write w) xs;
    Writer.close w

let to_string t = Writer.render write t
let to_channel oc t = Writer.to_channel oc write t

exception Parse_error of string

let parse_all (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some ';' ->
      (* comment to end of line *)
      while peek () <> None && peek () <> Some '\n' do
        advance ()
      done;
      skip_ws ()
    | _ -> ()
  in
  let parse_quoted () =
    advance ();
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Parse_error "unterminated string")
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some c -> Buffer.add_char buf c
        | None -> raise (Parse_error "dangling escape"));
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
  let parse_bare () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';') | None -> ()
      | Some _ ->
        advance ();
        go ()
    in
    go ();
    String.sub s start (!pos - start)
  in
  let rec parse_one () =
    skip_ws ();
    match peek () with
    | None -> raise (Parse_error "unexpected end of input")
    | Some '(' ->
      advance ();
      let items = ref [] in
      let rec go () =
        skip_ws ();
        match peek () with
        | Some ')' -> advance ()
        | None -> raise (Parse_error "unterminated list")
        | Some _ ->
          items := parse_one () :: !items;
          go ()
      in
      go ();
      List (List.rev !items)
    | Some ')' -> raise (Parse_error "unexpected )")
    | Some '"' -> Atom (parse_quoted ())
    | Some _ -> Atom (parse_bare ())
  in
  let result = parse_one () in
  skip_ws ();
  if !pos <> n then raise (Parse_error "trailing input");
  result

let of_string s =
  match parse_all s with
  | t -> Ok t
  | exception Parse_error msg -> Error msg

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let len = in_channel_length ic in
    let content = really_input_string ic len in
    close_in ic;
    of_string content

let save path t = Writer.to_file path write t

let atom s = Atom s
let int n = Atom (string_of_int n)
let list xs = List xs
let field name xs = List (Atom name :: xs)

let as_int = function
  | Atom s -> (
    match int_of_string_opt s with Some n -> Ok n | None -> Error ("not an int: " ^ s))
  | List _ -> Error "expected int, got list"

let as_atom = function Atom s -> Ok s | List _ -> Error "expected atom, got list"
let as_list = function List xs -> Ok xs | Atom s -> Error ("expected list, got atom " ^ s)

let assoc name t =
  match t with
  | Atom _ -> Error "expected list of fields"
  | List fields -> (
    let found =
      List.find_opt
        (function List (Atom n :: _) when n = name -> true | _ -> false)
        fields
    in
    match found with
    | Some (List (_ :: args)) -> Ok args
    | _ -> Error ("missing field " ^ name))

(* --- decoding kit ------------------------------------------------------ *)

let ( let* ) = Result.bind

let rec collect_results = function
  | [] -> Ok []
  | Ok x :: rest ->
    let* xs = collect_results rest in
    Ok (x :: xs)
  | Error e :: _ -> Error e

let rec int_list = function
  | [] -> Ok []
  | x :: rest ->
    let* n = as_int x in
    let* ns = int_list rest in
    Ok (n :: ns)

let single conv name t =
  let* args = assoc name t in
  match args with [ x ] -> conv x | _ -> Error ("bad field " ^ name)

let int_field name t = single as_int name t
let atom_field name t = single as_atom name t

let rec pick items name f =
  match items with
  | [] -> Ok []
  | List (Atom n :: args) :: rest when n = name ->
    let* x = f args in
    let* xs = pick rest name f in
    Ok (x :: xs)
  | _ :: rest -> pick rest name f
