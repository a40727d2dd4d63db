module W = Ormp_util.Sexp.Writer
module R = Ormp_util.Sexp.Reader

let version = 1

let write w (p : Ormp_whomp.Rasg.profile) =
  W.nested w "ormp-rasg-profile";
  W.int_field w "version" version;
  W.int_field w "accesses" p.Ormp_whomp.Rasg.accesses;
  Grammar_io.write w ("rasg", p.Ormp_whomp.Rasg.grammar);
  W.close w

let save path p = W.to_file path write p

let read r =
  R.nested r "ormp-rasg-profile";
  let v = R.int_field r "version" in
  if v <> version then R.fail r (Printf.sprintf "unsupported version %d" v);
  let accesses = R.int_field r "accesses" in
  let dim, grammar = Grammar_io.read r ~length:accesses ~exact:true in
  if dim <> "rasg" then R.fail r "expected the rasg grammar";
  R.close r;
  { Ormp_whomp.Rasg.grammar; accesses; elapsed = 0.0 }

let load path = R.load path read
