module W = Ormp_util.Sexp.Writer
module R = Ormp_util.Sexp.Reader
module Seq_c = Ormp_sequitur.Sequitur
module Omc = Ormp_core.Omc
module Cdc = Ormp_core.Cdc
module Leap = Ormp_leap.Leap
module Lmad_io = Ormp_persist.Lmad_io
module Leap_io = Ormp_persist.Leap_io
module Whomp_io = Ormp_persist.Whomp_io
module Grammar_io = Ormp_persist.Grammar_io

let version = 1

type epoch = {
  ep_index : int;
  ep_dim : string;
  ep_file : string;
  ep_from : int;
  ep_to : int;
  ep_symbols : int;
}

type degradation = { dg_position : int; dg_kind : string; dg_detail : string }

type header = { h_position : int; h_checkpoint : int; h_journal_crc : int }

type t = {
  position : int;
  checkpoint : int;
  journal_crc : int;
  rotations : int;
  epochs : epoch list;
  degradations : degradation list;
  cdc : Cdc.state;
  whomp : Seq_c.t * Seq_c.t * Seq_c.t * Seq_c.t;
  rasg : Seq_c.t;
  leap : Leap.live;
}

(* --- encoding --------------------------------------------------------- *)

(* A group's type is [-] when unknown, [(name)] when known. *)
let write_group w (g : Omc.group_state) =
  (match g.Omc.gs_type with None -> W.flat w "group" | Some _ -> W.nested w "group");
  W.int w g.Omc.gs_site;
  (match g.Omc.gs_type with
  | None -> W.atom w "-"
  | Some ty ->
    W.flat w ty;
    W.close w);
  W.int w g.Omc.gs_population;
  W.close w

let write_cdc w (s : Cdc.state) =
  W.nested w "cdc";
  W.flat w "grouping";
  W.atom w (match s.Cdc.s_omc.Omc.s_grouping with `Site -> "site" | `Type -> "type");
  W.close w;
  W.int_field w "clock" s.Cdc.s_clock;
  W.int_field w "wild" s.Cdc.s_wild;
  W.int_field w "unknown-frees" s.Cdc.s_omc.Omc.s_unknown_frees;
  List.iter (write_group w) s.Cdc.s_omc.Omc.s_groups;
  List.iter (Whomp_io.write_lifetime w) s.Cdc.s_omc.Omc.s_lifetimes;
  W.close w

let write_leap w (lv : Leap.live) =
  W.nested w "leap";
  Leap_io.write_stores w lv.Leap.lv_stores;
  W.flat w "dropped";
  List.iter
    (fun (k : Leap.key) ->
      W.int w k.Leap.instr;
      W.int w k.Leap.group)
    lv.Leap.lv_dropped;
  W.close w;
  W.int_field w "dropped-accesses" lv.Leap.lv_dropped_accesses;
  List.iter (Leap_io.write_stream Lmad_io.write_state w) lv.Leap.lv_streams;
  W.close w

let write_epoch w (e : epoch) =
  W.flat w "epoch";
  W.int w e.ep_index;
  W.atom w e.ep_dim;
  W.atom w e.ep_file;
  W.int w e.ep_from;
  W.int w e.ep_to;
  W.int w e.ep_symbols;
  W.close w

let write_degradation w (d : degradation) =
  W.flat w "degradation";
  W.int w d.dg_position;
  W.atom w d.dg_kind;
  W.atom w d.dg_detail;
  W.close w

let write w (t : t) =
  let gi, gg, go, gf = t.whomp in
  W.nested w "ormp-session-snapshot";
  W.int_field w "version" version;
  W.int_field w "position" t.position;
  W.int_field w "checkpoint" t.checkpoint;
  W.int_field w "journal-crc" t.journal_crc;
  W.int_field w "rotations" t.rotations;
  List.iter (write_epoch w) t.epochs;
  List.iter (write_degradation w) t.degradations;
  write_cdc w t.cdc;
  W.nested w "whomp";
  Grammar_io.write w ("instr", gi);
  Grammar_io.write w ("group", gg);
  Grammar_io.write w ("object", go);
  Grammar_io.write w ("offset", gf);
  W.close w;
  W.nested w "rasg";
  Grammar_io.write w ("rasg", t.rasg);
  W.close w;
  write_leap w t.leap;
  W.close w

(* --- decoding --------------------------------------------------------- *)

let read_group r =
  R.flat r "group";
  let gs_site = R.int r in
  let gs_type =
    if R.next_is r '(' then begin
      R.list r;
      let ty = R.atom r in
      R.close r;
      Some ty
    end
    else if R.atom r = "-" then None
    else R.fail r "expected - or (type)"
  in
  let gs_population = R.int r in
  R.close r;
  { Omc.gs_site; gs_type; gs_population }

let read_cdc r =
  R.nested r "cdc";
  R.flat r "grouping";
  let s_grouping =
    match R.atom r with "site" -> `Site | "type" -> `Type | _ -> R.fail r "expected site or type"
  in
  R.close r;
  let s_clock = R.int_field r "clock" in
  let s_wild = R.int_field r "wild" in
  let s_unknown_frees = R.int_field r "unknown-frees" in
  let s_groups = R.repeated r "group" read_group in
  let s_lifetimes = R.repeated r "object" Whomp_io.read_lifetime in
  R.close r;
  (* What [Omc.of_state] would raise on once the load has succeeded is
     refused here, so a resealed payload is skipped, not fatal: a group
     key twice, and the object table against its groups (the label plays
     no part in [Verify.objects]). *)
  let keys =
    List.map
      (fun (g : Omc.group_state) ->
        match g.gs_type with Some ty -> `Type ty | None -> `Site g.gs_site)
      s_groups
  in
  if List.length (List.sort_uniq compare keys) <> List.length keys then
    R.fail r "expected each group key once";
  let groups =
    List.mapi
      (fun gid (g : Omc.group_state) ->
        { Omc.gid; site = g.gs_site; label = ""; population = g.gs_population })
      s_groups
  in
  Result.iter_error (R.fail r) (Ormp_check.Verify.objects ~groups s_lifetimes);
  { Cdc.s_omc = { Omc.s_grouping; s_groups; s_lifetimes; s_unknown_frees }; s_clock; s_wild }

let read_leap r =
  R.nested r "leap";
  let lv_stores = Leap_io.read_stores r in
  R.flat r "dropped";
  let dropped = ref [] in
  while R.more r do
    let instr = R.int r in
    let group = R.int r in
    dropped := { Leap.instr; group } :: !dropped
  done;
  R.close r;
  let lv_dropped_accesses = R.int_field r "dropped-accesses" in
  let lv_streams = R.repeated r "stream" (Leap_io.read_stream Lmad_io.read_state) in
  R.close r;
  Result.iter_error (R.fail r) (Ormp_check.Verify.leap_streams lv_streams);
  { Leap.lv_streams; lv_stores; lv_dropped = List.rev !dropped; lv_dropped_accesses }

let read_epoch r =
  R.flat r "epoch";
  let ep_index = R.int r in
  let ep_dim = R.atom r in
  let ep_file = R.atom r in
  let ep_from = R.int r in
  let ep_to = R.int r in
  let ep_symbols = R.int r in
  R.close r;
  { ep_index; ep_dim; ep_file; ep_from; ep_to; ep_symbols }

let read_degradation r =
  R.flat r "degradation";
  let dg_position = R.int r in
  let dg_kind = R.atom r in
  let dg_detail = R.atom r in
  R.close r;
  { dg_position; dg_kind; dg_detail }

(* The leading fields, all that [load_header] reads. *)
let read_header r =
  R.nested r "ormp-session-snapshot";
  let v = R.int_field r "version" in
  if v <> version then R.fail r (Printf.sprintf "unsupported snapshot version %d" v);
  let h_position = R.int_field r "position" in
  let h_checkpoint = R.int_field r "checkpoint" in
  let h_journal_crc = R.int_field r "journal-crc" in
  { h_position; h_checkpoint; h_journal_crc }

let read r =
  let h = read_header r in
  let rotations = R.int_field r "rotations" in
  let epochs = R.repeated r "epoch" read_epoch in
  let degradations = R.repeated r "degradation" read_degradation in
  let cdc = read_cdc r in
  (* A grammar holds at most the accesses among the events taken. *)
  let grammar name =
    let dim, g = Grammar_io.read r ~length:h.h_position ~exact:false in
    if dim <> name then R.fail r ("expected the " ^ name ^ " grammar");
    g
  in
  R.nested r "whomp";
  let gi = grammar "instr" in
  let gg = grammar "group" in
  let go = grammar "object" in
  let gf = grammar "offset" in
  R.close r;
  R.nested r "rasg";
  let rasg = grammar "rasg" in
  R.close r;
  let leap = read_leap r in
  R.close r;
  {
    position = h.h_position;
    checkpoint = h.h_checkpoint;
    journal_crc = h.h_journal_crc;
    rotations;
    epochs;
    degradations;
    cdc;
    whomp = (gi, gg, go, gf);
    rasg;
    leap;
  }

let header t = { h_position = t.position; h_checkpoint = t.checkpoint; h_journal_crc = t.journal_crc }
let save ?io path t = Storage.save_sealed ?io path write t
let load path = Storage.load_sealed path read

(* The seal covers the whole payload, so the rest is left unread. *)
let load_header path =
  Storage.load_sealed path (fun r ->
      let h = read_header r in
      R.skip_rest r;
      h)
