module S = Ormp_util.Sexp
module Seq_c = Ormp_sequitur.Sequitur

let ( let* ) = Result.bind

(* One grammar as [(grammar (dim <name>) (rule <id> <sym>...)...)]:
   terminals are bare ints, non-terminals [R<id>] atoms. Rules are
   enumerated with {!Ormp_sequitur.Sequitur.iter_rules} — same ascending-id
   order as [rules], without materializing the intermediate listing. *)
let to_sexp (name, g) =
  let rules = ref [] in
  Seq_c.iter_rules g (fun id rhs ->
      rules :=
        S.field "rule"
          (S.int id
          :: List.map
               (function `T v -> S.int v | `N id -> S.atom (Printf.sprintf "R%d" id))
               rhs)
        :: !rules);
  S.field "grammar" (S.field "dim" [ S.atom name ] :: List.rev !rules)

let sym_of_atom a =
  if String.length a > 1 && a.[0] = 'R' then
    match int_of_string_opt (String.sub a 1 (String.length a - 1)) with
    | Some r -> Ok (`N r)
    | None -> Error ("bad symbol " ^ a)
  else
    match int_of_string_opt a with
    | Some v -> Ok (`T v)
    | None -> Error ("bad symbol " ^ a)

(* [args] are the elements after the [grammar] atom. The live grammar is
   rebuilt with {!Ormp_sequitur.Sequitur.of_rules} (expand + re-push), which
   also rejects cyclic and dangling rule references from corrupt files. *)
let of_sexp args =
  let body = S.List (S.Atom "_" :: args) in
  let* dim_args = S.assoc "dim" body in
  let* dim = match dim_args with [ a ] -> S.as_atom a | _ -> Error "bad dim" in
  let* rules =
    List.fold_left
      (fun acc item ->
        let* rules = acc in
        match item with
        | S.List (S.Atom "rule" :: S.Atom id_s :: rhs) -> (
          match int_of_string_opt id_s with
          | None -> Error ("bad rule id " ^ id_s)
          | Some id ->
            let* syms =
              S.collect_results
                (List.map
                   (fun s ->
                     let* a = S.as_atom s in
                     sym_of_atom a)
                   rhs)
            in
            Ok ((id, syms) :: rules))
        | _ -> Ok rules)
      (Ok []) args
  in
  let* g = Seq_c.of_rules (List.rev rules) in
  Ok (dim, g)

let save path (name, g) = S.save path (to_sexp (name, g))

let load path =
  match
    let* t = S.load path in
    let* args = S.as_list t in
    match args with
    | S.Atom "grammar" :: rest -> of_sexp rest
    | _ -> Error "not a grammar file"
  with
  | result -> result
  | exception exn -> Error (Printf.sprintf "corrupt grammar %s: %s" path (Printexc.to_string exn))
