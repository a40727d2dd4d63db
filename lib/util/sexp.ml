type t = Atom of string | List of t list

let needs_quoting s =
  s = ""
  || String.exists
       (function
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | '\\' | ';' -> true
         | _ -> false)
       s

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
        Buffer.add_char buf '\\';
        Buffer.add_char buf c
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let atom_to_string s = if needs_quoting s then escape s else s

let rec to_buf buf = function
  | Atom s -> Buffer.add_string buf (atom_to_string s)
  | List xs ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ' ';
        to_buf buf x)
      xs;
    Buffer.add_char buf ')'

let to_string t =
  let buf = Buffer.create 256 in
  to_buf buf t;
  Buffer.contents buf

let rec write_indented oc ~depth t =
  match t with
  | Atom _ -> output_string oc (to_string t)
  | List xs when List.for_all (function Atom _ -> true | _ -> false) xs ->
    output_string oc (to_string t)
  | List xs ->
    output_char oc '(';
    List.iteri
      (fun i x ->
        if i > 0 then begin
          output_char oc '\n';
          output_string oc (String.make ((depth + 1) * 2) ' ')
        end;
        write_indented oc ~depth:(depth + 1) x)
      xs;
    output_char oc ')'

let to_channel oc t =
  write_indented oc ~depth:0 t;
  output_char oc '\n'

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

let save path t =
  let oc = open_out_bin path in
  to_channel oc t;
  close_out oc

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

let int_list args = collect_results (List.map as_int args)

let single conv name t =
  let* args = assoc name t in
  match args with [ x ] -> conv x | _ -> Error ("bad field " ^ name)

let int_field name t = single as_int name t
let atom_field name t = single as_atom name t

let pick items name f =
  collect_results
    (List.filter_map
       (function List (Atom n :: args) when n = name -> Some (f args) | _ -> None)
       items)
