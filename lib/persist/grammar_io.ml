module S = Ormp_util.Sexp
module W = Ormp_util.Sexp.Writer
module Seq_c = Ormp_sequitur.Sequitur

let ( let* ) = Result.bind

(* One grammar as [(grammar (dim <name>) (rule <id> <sym>...)...)]:
   terminals are bare ints, non-terminals [R<id>] atoms. Rules stream
   straight from {!Ormp_sequitur.Sequitur.visit_rules} into the writer —
   ascending-id order, no intermediate listing, nothing allocated per
   symbol. *)
let write w (name, g) =
  W.nested w "grammar";
  W.flat w "dim";
  W.atom w name;
  W.close w;
  Seq_c.visit_rules g
    ~rule:(fun id ->
      W.flat w "rule";
      W.int w id)
    ~terminal:(fun v -> W.int w v)
    ~nonterminal:(fun id -> W.prefixed w 'R' id)
    ~rule_end:(fun _ -> W.close w);
  W.close w

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
   also rejects cyclic and dangling rule references from corrupt files and
   any listing other than the one the rebuild holds; its errors name the
   grammar. *)
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
  match Seq_c.of_rules (List.rev rules) with
  | Ok g -> Ok (dim, g)
  | Error e -> Error (Printf.sprintf "grammar %s: %s" dim e)

let save path grammar = W.to_file path write grammar

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
