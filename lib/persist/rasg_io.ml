module S = Ormp_util.Sexp
module W = Ormp_util.Sexp.Writer

let version = 1

let ( let* ) = Result.bind

let write w (p : Ormp_whomp.Rasg.profile) =
  W.nested w "ormp-rasg-profile";
  W.int_field w "version" version;
  W.int_field w "accesses" p.Ormp_whomp.Rasg.accesses;
  Grammar_io.write w ("rasg", p.Ormp_whomp.Rasg.grammar);
  W.close w

let save path p = W.to_file path write p

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
