module S = Ormp_util.Sexp
module W = Ormp_util.Sexp.Writer
module C = Ormp_lmad.Compressor
module L = Ormp_lmad.Lmad

let ( let* ) = Result.bind

(* [(name a b ...)] *)
let write_ints w name a =
  W.flat w name;
  Array.iter (W.int w) a;
  W.close w

(* --- LMAD descriptors ------------------------------------------------ *)

let write_level w (l : L.level) =
  W.nested w "level";
  write_ints w "stride" l.L.stride;
  W.int_field w "count" l.L.count;
  W.close w

let write_lmad w (d : L.t) =
  W.nested w "lmad";
  write_ints w "start" d.L.start;
  List.iter (write_level w) d.L.levels;
  W.close w

let levels_of_sexps items =
  S.collect_results
    (List.filter_map
       (function
         | S.List (S.Atom "level" :: _) as l ->
           Some
             (let* stride_args = S.assoc "stride" l in
              let* stride = S.int_list stride_args in
              let* count = S.int_field "count" l in
              Ok { L.stride = Array.of_list stride; count })
         | _ -> None)
       items)

let lmad_of_sexp t =
  let* args = S.as_list t in
  match args with
  | S.Atom "lmad" :: rest ->
    let* start_args = S.assoc "start" (S.List (S.Atom "_" :: rest)) in
    let* start = S.int_list start_args in
    let* levels = levels_of_sexps rest in
    (match L.of_levels ~start:(Array.of_list start) ~levels with
    | d -> Ok d
    | exception Invalid_argument msg -> Error msg)
  | _ -> Error "expected (lmad ...)"

(* --- summaries ------------------------------------------------------- *)

let write_summary w (s : C.summary) =
  W.nested w "summary";
  write_ints w "min" s.C.min_v;
  write_ints w "max" s.C.max_v;
  write_ints w "granularity" s.C.granularity;
  W.int_field w "discarded" s.C.discarded;
  W.close w

let summary_of_sexp t =
  let* min_args = S.assoc "min" t in
  let* min_v = S.int_list min_args in
  let* max_args = S.assoc "max" t in
  let* max_v = S.int_list max_args in
  let* gran_args = S.assoc "granularity" t in
  let* granularity = S.int_list gran_args in
  let* discarded = S.int_field "discarded" t in
  Ok
    {
      C.min_v = Array.of_list min_v;
      max_v = Array.of_list max_v;
      granularity = Array.of_list granularity;
      discarded;
    }

(* --- lossy compressor snapshots (profile files) ---------------------- *)

let write_comp w name (c : C.t) =
  let p = C.parts c in
  W.nested w name;
  W.int_field w "dims" p.C.p_dims;
  W.int_field w "budget" p.C.p_budget;
  W.int_field w "max-depth" p.C.p_max_depth;
  W.int_field w "total" p.C.p_total;
  W.int_field w "discarded" p.C.p_discarded;
  List.iter (write_lmad w) p.C.p_lmads;
  Option.iter (write_summary w) p.C.p_summary;
  W.close w

let comp_of_sexp name t =
  let* args = S.assoc name t in
  let body = S.List (S.Atom name :: args) in
  let* dims = S.int_field "dims" body in
  let* budget = S.int_field "budget" body in
  let* max_depth = S.int_field "max-depth" body in
  let* total = S.int_field "total" body in
  let* discarded = S.int_field "discarded" body in
  let lmad_sexps =
    List.filter (function S.List (S.Atom "lmad" :: _) -> true | _ -> false) args
  in
  let* lmads = S.collect_results (List.map lmad_of_sexp lmad_sexps) in
  let* summary =
    match S.assoc "summary" body with
    | Ok sargs ->
      let* s = summary_of_sexp (S.List (S.Atom "summary" :: sargs)) in
      Ok (Some s)
    | Error _ -> Ok None
  in
  match
    C.of_parts
      {
        C.p_dims = dims;
        p_budget = budget;
        p_max_depth = max_depth;
        p_lmads = lmads;
        p_total = total;
        p_discarded = discarded;
        p_summary = summary;
      }
  with
  | c -> Ok c
  | exception Invalid_argument msg -> Error msg

(* --- exact compressor state (session snapshots) ---------------------- *)

let write_open w (os : C.open_state) =
  W.nested w "open";
  write_ints w "start" os.C.s_start;
  List.iter (write_level w) os.C.s_levels;
  Option.iter (write_ints w "top-stride") os.C.s_top_stride;
  W.int_field w "top-done" os.C.s_top_done;
  W.int_field w "partial" os.C.s_partial;
  W.close w

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

let state_of_sexp name t =
  let* args = S.assoc name t in
  let body = S.List (S.Atom name :: args) in
  let* dims = S.int_field "dims" body in
  let* budget = S.int_field "budget" body in
  let* max_depth = S.int_field "max-depth" body in
  let* total = S.int_field "total" body in
  let lmad_sexps =
    List.filter (function S.List (S.Atom "lmad" :: _) -> true | _ -> false) args
  in
  let* closed = S.collect_results (List.map lmad_of_sexp lmad_sexps) in
  let* current =
    match S.assoc "open" body with
    | Error _ -> Ok None
    | Ok oargs ->
      let obody = S.List (S.Atom "open" :: oargs) in
      let* start_args = S.assoc "start" obody in
      let* start = S.int_list start_args in
      let* levels = levels_of_sexps oargs in
      let* top_stride =
        match S.assoc "top-stride" obody with
        | Error _ -> Ok None
        | Ok ts_args ->
          let* ts = S.int_list ts_args in
          Ok (Some (Array.of_list ts))
      in
      let* top_done = S.int_field "top-done" obody in
      let* partial = S.int_field "partial" obody in
      Ok
        (Some
           {
             C.s_start = Array.of_list start;
             s_levels = levels;
             s_top_stride = top_stride;
             s_top_done = top_done;
             s_partial = partial;
           })
  in
  let* summary =
    match S.assoc "summary" body with
    | Error _ -> Ok None
    | Ok sargs ->
      let* s = summary_of_sexp (S.List (S.Atom "summary" :: sargs)) in
      Ok (Some s)
  in
  let* last_discarded =
    match S.assoc "last-discarded" body with
    | Error _ -> Ok None
    | Ok largs ->
      let* p = S.int_list largs in
      Ok (Some (Array.of_list p))
  in
  match
    C.of_state
      {
        C.s_dims = dims;
        s_budget = budget;
        s_max_depth = max_depth;
        s_closed = closed;
        s_current = current;
        s_total = total;
        s_summary = summary;
        s_last_discarded = last_discarded;
      }
  with
  | c -> Ok c
  | exception Invalid_argument msg -> Error msg
