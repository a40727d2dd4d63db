module W = Ormp_util.Sexp.Writer
module R = Ormp_util.Sexp.Reader
module Whomp = Ormp_whomp.Whomp
module Omc = Ormp_core.Omc

(* Version 2 added the free-site column to object records. *)
let version = 2

(* --- writing --------------------------------------------------------- *)

let write_group w (g : Omc.group_info) =
  W.flat w "group";
  W.int w g.Omc.gid;
  W.int w g.Omc.site;
  W.atom w g.Omc.label;
  W.int w g.Omc.population;
  W.close w

let write_lifetime w (l : Omc.lifetime) =
  W.flat w "object";
  W.int w l.Omc.group;
  W.int w l.Omc.serial;
  W.int w l.Omc.base;
  W.int w l.Omc.size;
  W.int w l.Omc.alloc_time;
  W.int w (match l.Omc.free_time with None -> -1 | Some t -> t);
  W.int w (match l.Omc.free_site with None -> -1 | Some s -> s);
  W.close w

let write w (p : Whomp.profile) =
  W.nested w "ormp-whomp-profile";
  W.int_field w "version" version;
  W.int_field w "collected" p.Whomp.collected;
  W.int_field w "wild" p.Whomp.wild;
  List.iter (Grammar_io.write w) p.Whomp.dims;
  List.iter (write_group w) p.Whomp.groups;
  List.iter (write_lifetime w) p.Whomp.lifetimes;
  W.close w

let save path p = W.to_file path write p

(* --- reading --------------------------------------------------------- *)

let read_group r =
  R.flat r "group";
  let gid = R.int r in
  let site = R.int r in
  let label = R.atom r in
  let population = R.int r in
  R.close r;
  { Omc.gid; site; label; population }

(* [-1] is "not set"; any other negative was never written. *)
let read_lifetime r =
  let opt r =
    match R.int r with
    | -1 -> None
    | n when n >= 0 -> Some n
    | _ -> R.fail r "expected -1 or a time or site"
  in
  R.flat r "object";
  let group = R.int r in
  let serial = R.int r in
  let base = R.int r in
  let size = R.int r in
  let alloc_time = R.int r in
  let free_time = opt r in
  let free_site = opt r in
  R.close r;
  { Omc.group; serial; base; size; alloc_time; free_time; free_site }

let read r =
  R.nested r "ormp-whomp-profile";
  let v = R.int_field r "version" in
  if v <> version then R.fail r (Printf.sprintf "unsupported version %d" v);
  let collected = R.int_field r "collected" in
  let wild = R.int_field r "wild" in
  (* Every dimension holds one symbol per collected access. *)
  let dims = R.repeated r "grammar" (Grammar_io.read ~length:collected ~exact:true) in
  let groups = R.repeated r "group" read_group in
  let lifetimes = R.repeated r "object" read_lifetime in
  R.close r;
  let p = { Whomp.dims; collected; wild; groups; lifetimes; elapsed = 0.0 } in
  Result.iter_error (R.fail r) (Ormp_check.Verify.whomp_profile p);
  p

let load path = R.load path read
