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

  let list w = open_list w ~flat:false

  let nested w name =
    list w;
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

let save path t = Writer.to_file path write t

let atom s = Atom s
let int n = Atom (string_of_int n)
let list xs = List xs
let field name xs = List (Atom name :: xs)

(* --- the reader ---------------------------------------------------------- *)

(* The writer's mirror. A loader reads its writer's elements in the
   writer's order, straight off the bytes: there is no tree, no recursion
   (a megabyte of [(] costs one scan to its first unexpected token), and
   an integer is parsed in place by [Decimal]. An atom is accepted only in
   the writer's spelling of it, so a file that loads saves back to the
   same tokens; only the blanks between tokens are free. *)
module Reader = struct
  exception Malformed of string

  type t = { s : string; mutable pos : int }

  let fail r what = raise (Malformed ("byte " ^ string_of_int r.pos ^ ": " ^ what))
  let expected r what = fail r ("expected " ^ what)
  let is_blank = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

  let rec skip_blank r =
    if r.pos < String.length r.s && is_blank (String.unsafe_get r.s r.pos) then begin
      r.pos <- r.pos + 1;
      skip_blank r
    end

  (* Where the bare token at [i] ends: at a blank, a parenthesis or the
     end of input. *)
  let rec bare_end s i =
    if i = String.length s then i
    else
      match String.unsafe_get s i with
      | ' ' | '\t' | '\n' | '\r' | '(' | ')' -> i
      | _ -> bare_end s (i + 1)

  let more r =
    skip_blank r;
    r.pos < String.length r.s && String.unsafe_get r.s r.pos <> ')'

  let next_is r c =
    skip_blank r;
    r.pos < String.length r.s && String.unsafe_get r.s r.pos = c

  (* The bare token at [i] is [name]. *)
  let name_at r i name =
    let n = String.length name in
    bare_end r.s i = i + n
    &&
    let k = ref 0 in
    while !k < n && String.unsafe_get r.s (i + !k) = String.unsafe_get name !k do
      incr k
    done;
    !k = n

  let list r = if next_is r '(' then r.pos <- r.pos + 1 else expected r "a list"

  let at r name =
    next_is r '('
    &&
    let save = r.pos in
    r.pos <- r.pos + 1;
    skip_blank r;
    let found = name_at r r.pos name in
    r.pos <- save;
    found

  (* A wrong name is reported at its own offset, past the [(]. *)
  let nested r name =
    if not (next_is r '(') then expected r ("(" ^ name);
    r.pos <- r.pos + 1;
    skip_blank r;
    if not (name_at r r.pos name) then expected r ("(" ^ name);
    r.pos <- r.pos + String.length name

  let flat = nested

  let close r = if next_is r ')' then r.pos <- r.pos + 1 else expected r ")"

  let quoted r =
    let b = Buffer.create 16 in
    let rec go i =
      if i >= String.length r.s then expected r "a closing quote"
      else
        match String.unsafe_get r.s i with
        | '"' -> i + 1
        | '\n' -> expected r "a closing quote"
        | '\\' when i + 1 < String.length r.s -> (
          match String.unsafe_get r.s (i + 1) with
          | ('"' | '\\') as c ->
            Buffer.add_char b c;
            go (i + 2)
          | 'n' ->
            Buffer.add_char b '\n';
            go (i + 2)
          | _ -> expected r "an escape the writer makes")
        | c ->
          Buffer.add_char b c;
          go (i + 1)
    in
    let stop = go (r.pos + 1) in
    let a = Buffer.contents b in
    if not (needs_quoting a) then expected r "a bare atom";
    r.pos <- stop;
    a

  let atom r =
    if next_is r '"' then quoted r
    else
      let e = bare_end r.s r.pos in
      let a = String.sub r.s r.pos (e - r.pos) in
      if needs_quoting a then expected r "an atom";
      r.pos <- e;
      a

  let int r =
    skip_blank r;
    let e = bare_end r.s r.pos in
    match Decimal.parse r.s r.pos e with
    | n ->
      r.pos <- e;
      n
    | exception Decimal.Not_canonical -> expected r "an integer"

  let prefixed r c =
    skip_blank r;
    let e = bare_end r.s r.pos in
    match if next_is r c then Decimal.parse r.s (r.pos + 1) e else raise Decimal.Not_canonical with
    | n ->
      r.pos <- e;
      n
    | exception Decimal.Not_canonical -> expected r (String.make 1 c ^ " and an integer")

  let int_field r name =
    flat r name;
    let n = int r in
    close r;
    n

  let repeated r name read =
    let xs = ref [] in
    while at r name do
      xs := read r :: !xs
    done;
    List.rev !xs

  let optional r name read = if at r name then Some (read r) else None

  let skip r =
    let depth = ref 0 in
    let go = ref true in
    while !go do
      if next_is r '(' then begin
        list r;
        incr depth
      end
      else if !depth > 0 && next_is r ')' then begin
        close r;
        decr depth
      end
      else ignore (atom r);
      go := !depth > 0
    done

  let skip_rest r = r.pos <- String.length r.s

  let run s read =
    let r = { s; pos = 0 } in
    match
      let x = read r in
      skip_blank r;
      if r.pos < String.length s then expected r "the end of input";
      x
    with
    | x -> Ok x
    | exception Malformed msg -> Error msg

  let load path read =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> run s read
    | exception Sys_error msg -> Error msg
end
