module S = Ormp_util.Sexp
module W = Ormp_util.Sexp.Writer
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

let write_stream w ((k : Leap.key), (s : Leap.stream)) =
  W.nested w "stream";
  W.int_field w "instr" k.Leap.instr;
  W.int_field w "group" k.Leap.group;
  Lmad_io.write_state w "comp" s.Leap.comp;
  Lmad_io.write_state w "off" s.Leap.off;
  Leap_io.write_spans w s;
  W.close w

let write_leap w (lv : Leap.live) =
  W.nested w "leap";
  W.flat w "stores";
  List.iter (fun (i, st) -> if st then W.int w i) lv.Leap.lv_stores;
  W.close w;
  W.flat w "instrs";
  List.iter (fun (i, _) -> W.int w i) lv.Leap.lv_stores;
  W.close w;
  W.flat w "dropped";
  List.iter
    (fun (k : Leap.key) ->
      W.int w k.Leap.instr;
      W.int w k.Leap.group)
    lv.Leap.lv_dropped;
  W.close w;
  W.int_field w "dropped-accesses" lv.Leap.lv_dropped_accesses;
  List.iter (write_stream w) lv.Leap.lv_streams;
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

let ( let* ) = Result.bind

let group_of_sexp args =
  match args with
  | [ site; ty; population ] ->
    let* gs_site = S.as_int site in
    let* gs_type =
      match ty with
      | S.Atom "-" -> Ok None
      | S.List [ S.Atom t ] -> Ok (Some t)
      | _ -> Error "bad group type"
    in
    let* gs_population = S.as_int population in
    Ok { Omc.gs_site; gs_type; gs_population }
  | _ -> Error "bad group"

let cdc_of_sexp args =
  let body = S.List (S.Atom "_" :: args) in
  let* grouping =
    let* g = S.assoc "grouping" body in
    match g with
    | [ S.Atom "site" ] -> Ok `Site
    | [ S.Atom "type" ] -> Ok `Type
    | _ -> Error "bad grouping"
  in
  let* s_clock = S.int_field "clock" body in
  let* s_wild = S.int_field "wild" body in
  let* s_unknown_frees = S.int_field "unknown-frees" body in
  let* s_groups = S.pick args "group" group_of_sexp in
  let* s_lifetimes = S.pick args "object" Whomp_io.lifetime_of_sexp in
  Ok
    {
      Cdc.s_omc = { Omc.s_grouping = grouping; s_groups; s_lifetimes; s_unknown_frees };
      s_clock;
      s_wild;
    }

let stream_of_sexp t =
  let* instr = S.int_field "instr" t in
  let* group = S.int_field "group" t in
  let* comp = Lmad_io.state_of_sexp "comp" t in
  let* off = Lmad_io.state_of_sexp "off" t in
  let* spans, dspan = Leap_io.spans_of_sexp t in
  Ok ({ Leap.instr; group }, { Leap.comp; spans; off; dspan })

let leap_of_sexp args =
  let body = S.List (S.Atom "_" :: args) in
  let* store_args = S.assoc "stores" body in
  let* stores = S.int_list store_args in
  let* instr_args = S.assoc "instrs" body in
  let* instrs = S.int_list instr_args in
  let* dropped_args = S.assoc "dropped" body in
  let* dropped_ints = S.int_list dropped_args in
  let rec pair_up = function
    | [] -> Ok []
    | i :: g :: rest ->
      let* ks = pair_up rest in
      Ok ({ Leap.instr = i; group = g } :: ks)
    | [ _ ] -> Error "odd dropped list"
  in
  let* lv_dropped = pair_up dropped_ints in
  let* lv_dropped_accesses = S.int_field "dropped-accesses" body in
  let* lv_streams =
    S.pick args "stream" (fun a -> stream_of_sexp (S.List (S.Atom "_" :: a)))
  in
  let lv_stores =
    List.map (fun i -> (i, List.mem i stores)) (List.sort_uniq compare instrs)
  in
  Ok { Leap.lv_streams; lv_stores; lv_dropped; lv_dropped_accesses }

let epoch_of_sexp args =
  match args with
  | [ idx; dim; file; from_; to_; symbols ] ->
    let* ep_index = S.as_int idx in
    let* ep_dim = S.as_atom dim in
    let* ep_file = S.as_atom file in
    let* ep_from = S.as_int from_ in
    let* ep_to = S.as_int to_ in
    let* ep_symbols = S.as_int symbols in
    Ok { ep_index; ep_dim; ep_file; ep_from; ep_to; ep_symbols }
  | _ -> Error "bad epoch"

let degradation_of_sexp args =
  match args with
  | [ pos; kind; detail ] ->
    let* dg_position = S.as_int pos in
    let* dg_kind = S.as_atom kind in
    let* dg_detail = S.as_atom detail in
    Ok { dg_position; dg_kind; dg_detail }
  | _ -> Error "bad degradation"

let grammar_in name args =
  let* named = S.collect_results (List.map (fun g -> S.as_list g) args) in
  let* found =
    match
      List.find_opt
        (function
          | S.Atom "grammar" :: body -> (
            match S.assoc "dim" (S.List (S.Atom "_" :: body)) with
            | Ok [ S.Atom d ] -> d = name
            | _ -> false)
          | _ -> false)
        named
    with
    | Some (_ :: body) -> Ok body
    | _ -> Error (Printf.sprintf "missing %s grammar" name)
  in
  let* _, g = Grammar_io.of_sexp found in
  Ok g

let of_sexp t =
  let* args = S.as_list t in
  match args with
  | S.Atom "ormp-session-snapshot" :: rest ->
    let body = S.List (S.Atom "_" :: rest) in
    let* v = S.int_field "version" body in
    if v <> version then Error (Printf.sprintf "unsupported snapshot version %d" v)
    else
      let* position = S.int_field "position" body in
      let* checkpoint = S.int_field "checkpoint" body in
      let* journal_crc = S.int_field "journal-crc" body in
      let* rotations = S.int_field "rotations" body in
      let* epochs = S.pick rest "epoch" epoch_of_sexp in
      let* degradations = S.pick rest "degradation" degradation_of_sexp in
      let* cdc_args = S.assoc "cdc" body in
      let* cdc = cdc_of_sexp cdc_args in
      let* whomp_args = S.assoc "whomp" body in
      let* gi = grammar_in "instr" whomp_args in
      let* gg = grammar_in "group" whomp_args in
      let* go = grammar_in "object" whomp_args in
      let* gf = grammar_in "offset" whomp_args in
      let* rasg_args = S.assoc "rasg" body in
      let* rasg = grammar_in "rasg" rasg_args in
      let* leap_args = S.assoc "leap" body in
      let* leap = leap_of_sexp leap_args in
      Ok
        {
          position;
          checkpoint;
          journal_crc;
          rotations;
          epochs;
          degradations;
          cdc;
          whomp = (gi, gg, go, gf);
          rasg;
          leap;
        }
  | _ -> Error "not an ormp-session-snapshot"

let save ?io path t = Storage.save_sealed ?io path write t

let load path =
  match
    let* s = Storage.load_sealed path in
    of_sexp s
  with
  | result -> result
  | exception exn ->
    Error (Printf.sprintf "corrupt snapshot %s: %s" path (Printexc.to_string exn))
