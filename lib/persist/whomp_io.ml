module S = Ormp_util.Sexp
module Seq_c = Ormp_sequitur.Sequitur
module W = Ormp_whomp.Whomp
module Omc = Ormp_core.Omc

(* Version 2 added the free-site column to object records. *)
let version = 2

let ( let* ) = Result.bind

(* --- writing --------------------------------------------------------- *)

let grammar_to_sexp = Grammar_io.to_sexp

let group_to_sexp (g : Omc.group_info) =
  S.field "group"
    [ S.int g.Omc.gid; S.int g.Omc.site; S.atom g.Omc.label; S.int g.Omc.population ]

let lifetime_to_sexp (l : Omc.lifetime) =
  S.field "object"
    [
      S.int l.Omc.group;
      S.int l.Omc.serial;
      S.int l.Omc.base;
      S.int l.Omc.size;
      S.int l.Omc.alloc_time;
      S.int (match l.Omc.free_time with None -> -1 | Some t -> t);
      S.int (match l.Omc.free_site with None -> -1 | Some s -> s);
    ]

let to_sexp (p : W.profile) =
  S.field "ormp-whomp-profile"
    ([
       S.field "version" [ S.int version ];
       S.field "collected" [ S.int p.W.collected ];
       S.field "wild" [ S.int p.W.wild ];
     ]
    @ List.map grammar_to_sexp p.W.dims
    @ List.map group_to_sexp p.W.groups
    @ List.map lifetime_to_sexp p.W.lifetimes)

let save path p = S.save path (to_sexp p)

(* --- reading --------------------------------------------------------- *)

(* The heavy lifting — rebuilding a live grammar from its rule listing,
   with cyclic/dangling-reference detection — lives in {!Grammar_io} (and
   ultimately {!Seq_c.of_rules}) so the session snapshots share it. *)
let grammar_of_sexp = Grammar_io.of_sexp

let group_of_sexp args =
  match args with
  | [ gid; site; label; population ] ->
    let* gid = S.as_int gid in
    let* site = S.as_int site in
    let* label = S.as_atom label in
    let* population = S.as_int population in
    Ok { Omc.gid; site; label; population }
  | _ -> Error "bad group"

let lifetime_of_sexp args =
  let* xs = S.int_list args in
  match xs with
  | [ group; serial; base; size; alloc_time; free; free_site ] ->
    Ok
      {
        Omc.group;
        serial;
        base;
        size;
        alloc_time;
        free_time = (if free < 0 then None else Some free);
        free_site = (if free_site < 0 then None else Some free_site);
      }
  | _ -> Error "bad object record"

let of_sexp t =
  let* args = S.as_list t in
  match args with
  | S.Atom "ormp-whomp-profile" :: rest ->
    let body = S.List (S.Atom "_" :: rest) in
    let* v = S.int_field "version" body in
    if v <> version then Error (Printf.sprintf "unsupported version %d" v)
    else
      let* collected = S.int_field "collected" body in
      let* wild = S.int_field "wild" body in
      let* dims = S.pick rest "grammar" grammar_of_sexp in
      let* groups = S.pick rest "group" group_of_sexp in
      let* lifetimes = S.pick rest "object" lifetime_of_sexp in
      Ok { W.dims; collected; wild; groups; lifetimes; elapsed = 0.0 }
  | _ -> Error "not an ormp-whomp-profile"

let load path =
  (* A malformed file must never escape as an exception: Sexp.load already
     returns [Error] for I/O and parse failures, and this wrapper converts
     anything the structural decoding raises (e.g. Sequitur rejecting an
     impossible rebuilt sequence) into one too. *)
  match
    let* t = S.load path in
    of_sexp t
  with
  | result -> result
  | exception exn -> Error (Printf.sprintf "corrupt profile %s: %s" path (Printexc.to_string exn))
