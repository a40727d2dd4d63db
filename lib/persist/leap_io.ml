module S = Ormp_util.Sexp
module Leap = Ormp_leap.Leap

let version = 1

(* --- writing --------------------------------------------------------- *)

let comp_to_sexp = Lmad_io.comp_to_sexp

let spans_to_sexp (s : Leap.stream) =
  S.field "spans"
    (List.concat_map
       (fun (sp : Leap.span) -> [ S.int sp.Leap.t_first; S.int sp.Leap.t_last ])
       (List.rev (Ormp_util.Vec.fold_left (fun acc sp -> sp :: acc) [] s.Leap.spans)))
  ::
  (match s.Leap.dspan with
  | None -> []
  | Some sp -> [ S.field "dspan" [ S.int sp.Leap.t_first; S.int sp.Leap.t_last ] ])

let stream_to_sexp (k : Leap.key) (s : Leap.stream) =
  S.field "stream"
    ([
       S.field "instr" [ S.int k.Leap.instr ];
       S.field "group" [ S.int k.Leap.group ];
       comp_to_sexp "comp" s.Leap.comp;
       comp_to_sexp "off" s.Leap.off;
     ]
    @ spans_to_sexp s)

let to_sexp (p : Leap.profile) =
  S.field "ormp-leap-profile"
    ([
       S.field "version" [ S.int version ];
       S.field "collected" [ S.int p.Leap.collected ];
       S.field "wild" [ S.int p.Leap.wild ];
       (* Sorted: Hashtbl.fold order depends on insertion history, which
          differs between a live collector and a restored one — the file
          must be byte-identical either way (the loader never cared). *)
       S.field "stores"
         (List.map S.int
            (List.sort compare
               (* lint:allow hashtbl-order — order erased by the sort above *)
               (Hashtbl.fold
                  (fun i is_store acc -> if is_store then i :: acc else acc)
                  p.Leap.store_instrs [])));
       S.field "instrs"
         (List.map S.int
            (List.sort compare
               (* lint:allow hashtbl-order — order erased by the sort above *)
               (Hashtbl.fold (fun i _ acc -> i :: acc) p.Leap.store_instrs [])));
     ]
    (* Degradation counters ride along only when a session capped stream
       growth, keeping uncapped files (and version 1 readers) unchanged. *)
    @ (if p.Leap.dropped_streams <> 0 then
         [ S.field "dropped-streams" [ S.int p.Leap.dropped_streams ] ]
       else [])
    @ (if p.Leap.dropped_accesses <> 0 then
         [ S.field "dropped-accesses" [ S.int p.Leap.dropped_accesses ] ]
       else [])
    @ List.map (fun (k, s) -> stream_to_sexp k s) p.Leap.streams)

let save path p = S.save path (to_sexp p)

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
