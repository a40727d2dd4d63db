module S = Ormp_util.Sexp

let version = 1

let ( let* ) = Result.bind

let to_sexp (p : Ormp_whomp.Rasg.profile) =
  S.field "ormp-rasg-profile"
    [
      S.field "version" [ S.int version ];
      S.field "accesses" [ S.int p.Ormp_whomp.Rasg.accesses ];
      Grammar_io.to_sexp ("rasg", p.Ormp_whomp.Rasg.grammar);
    ]

let save path p = S.save path (to_sexp p)

let of_sexp t =
  let* args = S.as_list t in
  match args with
  | S.Atom "ormp-rasg-profile" :: rest ->
    let body = S.List (S.Atom "_" :: rest) in
    let* v = S.int_field "version" body in
    if v <> version then Error (Printf.sprintf "unsupported version %d" v)
    else
      let* accesses = S.int_field "accesses" body in
      let* gargs = S.assoc "grammar" body in
      let* _, grammar = Grammar_io.of_sexp gargs in
      Ok { Ormp_whomp.Rasg.grammar; accesses; elapsed = 0.0 }
  | _ -> Error "not an ormp-rasg-profile"

let load path =
  match
    let* t = S.load path in
    of_sexp t
  with
  | result -> result
  | exception exn -> Error (Printf.sprintf "corrupt profile %s: %s" path (Printexc.to_string exn))
