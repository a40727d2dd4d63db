module S = Ormp_util.Sexp
module W = Ormp_util.Sexp.Writer
module Leap = Ormp_leap.Leap

let version = 1

(* --- writing --------------------------------------------------------- *)

let write_span_pair w (sp : Leap.span) =
  W.int w sp.Leap.t_first;
  W.int w sp.Leap.t_last

let write_spans w (s : Leap.stream) =
  W.flat w "spans";
  Ormp_util.Vec.iter (write_span_pair w) s.Leap.spans;
  W.close w;
  Option.iter
    (fun sp ->
      W.flat w "dspan";
      write_span_pair w sp;
      W.close w)
    s.Leap.dspan

let write_stream w ((k : Leap.key), (s : Leap.stream)) =
  W.nested w "stream";
  W.int_field w "instr" k.Leap.instr;
  W.int_field w "group" k.Leap.group;
  Lmad_io.write_comp w "comp" s.Leap.comp;
  Lmad_io.write_comp w "off" s.Leap.off;
  write_spans w s;
  W.close w

let write_int_list w name xs =
  W.flat w name;
  List.iter (W.int w) xs;
  W.close w

let write w (p : Leap.profile) =
  W.nested w "ormp-leap-profile";
  W.int_field w "version" version;
  W.int_field w "collected" p.Leap.collected;
  W.int_field w "wild" p.Leap.wild;
  (* Sorted: Hashtbl.fold order depends on insertion history, which
     differs between a live collector and a restored one — the file
     must be byte-identical either way (the loader never cared). *)
  write_int_list w "stores"
    (List.sort compare
       (* lint:allow hashtbl-order — order erased by the sort above *)
       (Hashtbl.fold
          (fun i is_store acc -> if is_store then i :: acc else acc)
          p.Leap.store_instrs []));
  write_int_list w "instrs"
    (List.sort compare
       (* lint:allow hashtbl-order — order erased by the sort above *)
       (Hashtbl.fold (fun i _ acc -> i :: acc) p.Leap.store_instrs []));
  (* Degradation counters ride along only when a session capped stream
     growth, keeping uncapped files (and version 1 readers) unchanged. *)
  if p.Leap.dropped_streams <> 0 then
    W.int_field w "dropped-streams" p.Leap.dropped_streams;
  if p.Leap.dropped_accesses <> 0 then
    W.int_field w "dropped-accesses" p.Leap.dropped_accesses;
  List.iter (write_stream w) p.Leap.streams;
  W.close w

let save path p = W.to_file path write p

(* --- reading --------------------------------------------------------- *)

let ( let* ) = Result.bind

let opt_int_field ~default name t =
  match S.assoc name t with Error _ -> Ok default | Ok _ -> S.int_field name t

let spans_of_sexp t =
  let* span_args = S.assoc "spans" t in
  let* span_ints = S.int_list span_args in
  let spans = Ormp_util.Vec.create () in
  let rec pair_up = function
    | [] -> Ok ()
    | a :: b :: rest ->
      Ormp_util.Vec.push spans { Leap.t_first = a; t_last = b };
      pair_up rest
    | [ _ ] -> Error "odd span list"
  in
  let* () = pair_up span_ints in
  let* dspan =
    match S.assoc "dspan" t with
    | Ok [ a; b ] ->
      let* a = S.as_int a in
      let* b = S.as_int b in
      Ok (Some { Leap.t_first = a; t_last = b })
    | Ok _ -> Error "bad dspan"
    | Error _ -> Ok None
  in
  Ok (spans, dspan)

let stream_of_sexp t =
  let* instr = S.int_field "instr" t in
  let* group = S.int_field "group" t in
  let* comp = Lmad_io.comp_of_sexp "comp" t in
  let* off = Lmad_io.comp_of_sexp "off" t in
  let* spans, dspan = spans_of_sexp t in
  Ok ({ Leap.instr; group }, { Leap.comp; spans; off; dspan })

let of_sexp t =
  let* args = S.as_list t in
  match args with
  | S.Atom "ormp-leap-profile" :: rest ->
    let body = S.List (S.Atom "_" :: rest) in
    let* v = S.int_field "version" body in
    if v <> version then Error (Printf.sprintf "unsupported version %d" v)
    else
      let* collected = S.int_field "collected" body in
      let* wild = S.int_field "wild" body in
      let* dropped_streams = opt_int_field ~default:0 "dropped-streams" body in
      let* dropped_accesses = opt_int_field ~default:0 "dropped-accesses" body in
      let* store_args = S.assoc "stores" body in
      let* stores = S.int_list store_args in
      let* instr_args = S.assoc "instrs" body in
      let* all_instrs = S.int_list instr_args in
      let store_instrs = Hashtbl.create 64 in
      List.iter (fun i -> Hashtbl.replace store_instrs i false) all_instrs;
      List.iter (fun i -> Hashtbl.replace store_instrs i true) stores;
      let stream_sexps =
        List.filter (function S.List (S.Atom "stream" :: _) -> true | _ -> false) rest
      in
      let* streams = S.collect_results (List.map stream_of_sexp stream_sexps) in
      Ok
        {
          Leap.streams;
          store_instrs;
          collected;
          wild;
          dropped_streams;
          dropped_accesses;
          elapsed = 0.0;
        }
  | _ -> Error "not an ormp-leap-profile"

let load path =
  (* Mirror Whomp_io.load: no exception from a corrupt file may escape. *)
  match
    let* t = S.load path in
    of_sexp t
  with
  | result -> result
  | exception exn -> Error (Printf.sprintf "corrupt profile %s: %s" path (Printexc.to_string exn))
