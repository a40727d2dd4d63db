module W = Ormp_util.Sexp.Writer
module R = Ormp_util.Sexp.Reader
module Leap = Ormp_leap.Leap

let version = 1

(* --- streams --------------------------------------------------------- *)

let write_span_pair w (sp : Leap.span) =
  W.int w sp.Leap.t_first;
  W.int w sp.Leap.t_last

let read_span_pair r =
  let t_first = R.int r in
  let t_last = R.int r in
  { Leap.t_first; t_last }

let write_stream write_comp w ((k : Leap.key), (s : Leap.stream)) =
  W.nested w "stream";
  W.int_field w "instr" k.Leap.instr;
  W.int_field w "group" k.Leap.group;
  write_comp w "comp" s.Leap.comp;
  write_comp w "off" s.Leap.off;
  W.flat w "spans";
  Ormp_util.Vec.iter (write_span_pair w) s.Leap.spans;
  W.close w;
  Option.iter
    (fun sp ->
      W.flat w "dspan";
      write_span_pair w sp;
      W.close w)
    s.Leap.dspan;
  W.close w

let read_stream read_comp r =
  R.nested r "stream";
  let instr = R.int_field r "instr" in
  let group = R.int_field r "group" in
  let comp = read_comp r "comp" in
  let off = read_comp r "off" in
  R.flat r "spans";
  let spans = Ormp_util.Vec.create () in
  while R.more r do
    Ormp_util.Vec.push spans (read_span_pair r)
  done;
  R.close r;
  let dspan =
    R.optional r "dspan" (fun r ->
        R.flat r "dspan";
        let sp = read_span_pair r in
        R.close r;
        sp)
  in
  R.close r;
  ({ Leap.instr; group }, { Leap.comp; spans; off; dspan })

(* --- instruction kinds ----------------------------------------------- *)

let write_stores w stores =
  W.flat w "stores";
  List.iter (fun (i, is_store) -> if is_store then W.int w i) stores;
  W.close w;
  W.flat w "instrs";
  List.iter (fun (i, _) -> W.int w i) stores;
  W.close w

let read_stores r =
  let stores = Array.to_list (Lmad_io.read_ints r "stores") in
  let instrs = Array.to_list (Lmad_io.read_ints r "instrs") in
  (* Both ascending, every store among the instrs. *)
  let rec merge stores instrs =
    match (stores, instrs) with
    | _, i :: j :: _ when i >= j -> R.fail r "expected ascending instrs"
    | s :: ss, i :: rest when s = i -> (i, true) :: merge ss rest
    | s :: _, i :: rest when s > i -> (i, false) :: merge stores rest
    | [], i :: rest -> (i, false) :: merge [] rest
    | [], [] -> []
    | _ :: _, _ -> R.fail r "expected every store among the instrs"
  in
  merge stores instrs

(* --- profiles -------------------------------------------------------- *)

let write w (p : Leap.profile) =
  W.nested w "ormp-leap-profile";
  W.int_field w "version" version;
  W.int_field w "collected" p.Leap.collected;
  W.int_field w "wild" p.Leap.wild;
  (* Sorted: Hashtbl.fold order depends on insertion history, which
     differs between a live collector and a restored one — the file
     must be byte-identical either way. *)
  write_stores w
    (List.sort compare
       (* lint:allow hashtbl-order — order erased by the sort above *)
       (Hashtbl.fold (fun i is_store acc -> (i, is_store) :: acc) p.Leap.store_instrs []));
  (* Degradation counters ride along only when a session capped stream
     growth, keeping uncapped files (and version 1 readers) unchanged. *)
  if p.Leap.dropped_streams <> 0 then
    W.int_field w "dropped-streams" p.Leap.dropped_streams;
  if p.Leap.dropped_accesses <> 0 then
    W.int_field w "dropped-accesses" p.Leap.dropped_accesses;
  List.iter (write_stream Lmad_io.write_comp w) p.Leap.streams;
  W.close w

let save path p = W.to_file path write p

(* A counter the writer leaves out at zero is never written as zero. *)
let read_counter r name =
  match R.optional r name (fun r -> R.int_field r name) with
  | Some 0 -> R.fail r ("expected no (" ^ name ^ " 0)")
  | n -> Option.value n ~default:0

let read r =
  R.nested r "ormp-leap-profile";
  let v = R.int_field r "version" in
  if v <> version then R.fail r (Printf.sprintf "unsupported version %d" v);
  let collected = R.int_field r "collected" in
  let wild = R.int_field r "wild" in
  let store_instrs = Hashtbl.create 64 in
  List.iter (fun (i, is_store) -> Hashtbl.replace store_instrs i is_store) (read_stores r);
  let dropped_streams = read_counter r "dropped-streams" in
  let dropped_accesses = read_counter r "dropped-accesses" in
  let streams = R.repeated r "stream" (read_stream Lmad_io.read_comp) in
  R.close r;
  let p =
    {
      Leap.streams;
      store_instrs;
      collected;
      wild;
      dropped_streams;
      dropped_accesses;
      elapsed = 0.0;
    }
  in
  Result.iter_error (R.fail r) (Ormp_check.Verify.leap_profile p);
  p

let load path = R.load path read
