module W = Ormp_util.Sexp.Writer
module R = Ormp_util.Sexp.Reader
module C = Ormp_lmad.Compressor
module L = Ormp_lmad.Lmad

(* [(name a b ...)] *)
let write_ints w name a =
  W.flat w name;
  Array.iter (W.int w) a;
  W.close w

let read_ints r name =
  R.flat r name;
  let xs = ref [] in
  while R.more r do
    xs := R.int r :: !xs
  done;
  R.close r;
  Array.of_list (List.rev !xs)

(* --- LMAD descriptors ------------------------------------------------ *)

let write_level w (l : L.level) =
  W.nested w "level";
  write_ints w "stride" l.L.stride;
  W.int_field w "count" l.L.count;
  W.close w

(* Every level a compressor builds iterates at least twice. *)
let read_level r =
  R.nested r "level";
  let stride = read_ints r "stride" in
  let count = R.int_field r "count" in
  if count < 2 then R.fail r "expected a level count of at least 2";
  R.close r;
  { L.stride; count }

let write_lmad w (d : L.t) =
  W.nested w "lmad";
  write_ints w "start" d.L.start;
  List.iter (write_level w) d.L.levels;
  W.close w

let read_lmad r =
  R.nested r "lmad";
  let start = read_ints r "start" in
  let levels = R.repeated r "level" read_level in
  R.close r;
  match L.of_levels ~start ~levels with d -> d | exception Invalid_argument msg -> R.fail r msg

(* --- summaries ------------------------------------------------------- *)

let write_summary w (s : C.summary) =
  W.nested w "summary";
  write_ints w "min" s.C.min_v;
  write_ints w "max" s.C.max_v;
  write_ints w "granularity" s.C.granularity;
  W.int_field w "discarded" s.C.discarded;
  W.close w

let read_summary r =
  R.nested r "summary";
  let min_v = read_ints r "min" in
  let max_v = read_ints r "max" in
  let granularity = read_ints r "granularity" in
  let discarded = R.int_field r "discarded" in
  R.close r;
  { C.min_v; max_v; granularity; discarded }

let of_state r s = match C.of_state s with c -> c | exception Invalid_argument msg -> R.fail r msg

(* --- compressors in profile files ------------------------------------ *)

let write_comp w name (c : C.t) =
  let s = C.state c in
  W.nested w name;
  W.int_field w "dims" s.C.s_dims;
  W.int_field w "budget" s.C.s_budget;
  W.int_field w "max-depth" s.C.s_max_depth;
  W.int_field w "total" s.C.s_total;
  W.int_field w "discarded" (C.discarded c);
  List.iter (write_lmad w) (C.lmads c);
  Option.iter (write_summary w) s.C.s_summary;
  W.close w

let read_comp r name =
  R.nested r name;
  let s_dims = R.int_field r "dims" in
  let s_budget = R.int_field r "budget" in
  let s_max_depth = R.int_field r "max-depth" in
  let s_total = R.int_field r "total" in
  let discarded = R.int_field r "discarded" in
  let s_closed = R.repeated r "lmad" read_lmad in
  let s_summary = R.optional r "summary" read_summary in
  R.close r;
  if discarded <> (match s_summary with None -> 0 | Some s -> s.C.discarded) then
    R.fail r "discarded count disagrees with the summary";
  of_state r
    {
      C.s_dims;
      s_budget;
      s_max_depth;
      s_closed;
      s_current = None;
      s_total;
      s_summary;
      s_last_discarded = None;
    }

(* --- exact compressor state (session snapshots) ---------------------- *)

let write_open w (os : C.open_state) =
  W.nested w "open";
  write_ints w "start" os.C.s_start;
  List.iter (write_level w) os.C.s_levels;
  Option.iter (write_ints w "top-stride") os.C.s_top_stride;
  W.int_field w "top-done" os.C.s_top_done;
  W.int_field w "partial" os.C.s_partial;
  W.close w

let read_open r =
  R.nested r "open";
  let s_start = read_ints r "start" in
  let s_levels = R.repeated r "level" read_level in
  let s_top_stride = R.optional r "top-stride" (fun r -> read_ints r "top-stride") in
  let s_top_done = R.int_field r "top-done" in
  let s_partial = R.int_field r "partial" in
  R.close r;
  { C.s_start; s_levels; s_top_stride; s_top_done; s_partial }

let write_state w name (c : C.t) =
  let s = C.state c in
  W.nested w name;
  W.int_field w "dims" s.C.s_dims;
  W.int_field w "budget" s.C.s_budget;
  W.int_field w "max-depth" s.C.s_max_depth;
  W.int_field w "total" s.C.s_total;
  List.iter (write_lmad w) s.C.s_closed;
  Option.iter (write_open w) s.C.s_current;
  Option.iter (write_summary w) s.C.s_summary;
  Option.iter (write_ints w "last-discarded") s.C.s_last_discarded;
  W.close w

let read_state r name =
  R.nested r name;
  let s_dims = R.int_field r "dims" in
  let s_budget = R.int_field r "budget" in
  let s_max_depth = R.int_field r "max-depth" in
  let s_total = R.int_field r "total" in
  let s_closed = R.repeated r "lmad" read_lmad in
  let s_current = R.optional r "open" read_open in
  let s_summary = R.optional r "summary" read_summary in
  let s_last_discarded = R.optional r "last-discarded" (fun r -> read_ints r "last-discarded") in
  R.close r;
  of_state r
    { C.s_dims; s_budget; s_max_depth; s_closed; s_current; s_total; s_summary; s_last_discarded }
