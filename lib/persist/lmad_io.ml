module S = Ormp_util.Sexp
module C = Ormp_lmad.Compressor
module L = Ormp_lmad.Lmad

let ( let* ) = Result.bind

let ints xs = List.map S.int xs

(* --- LMAD descriptors ------------------------------------------------ *)

let level_to_sexp (l : L.level) =
  S.field "level"
    [
      S.field "stride" (ints (Array.to_list l.L.stride));
      S.field "count" [ S.int l.L.count ];
    ]

let lmad_to_sexp (d : L.t) =
  S.field "lmad" (S.field "start" (ints (Array.to_list d.L.start)) :: List.map level_to_sexp d.L.levels)

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

let summary_to_sexp (s : C.summary) =
  S.field "summary"
    [
      S.field "min" (ints (Array.to_list s.C.min_v));
      S.field "max" (ints (Array.to_list s.C.max_v));
      S.field "granularity" (ints (Array.to_list s.C.granularity));
      S.field "discarded" [ S.int s.C.discarded ];
    ]

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

let comp_to_sexp name (c : C.t) =
  let p = C.parts c in
  S.field name
    ([
       S.field "dims" [ S.int p.C.p_dims ];
       S.field "budget" [ S.int p.C.p_budget ];
       S.field "max-depth" [ S.int p.C.p_max_depth ];
       S.field "total" [ S.int p.C.p_total ];
       S.field "discarded" [ S.int p.C.p_discarded ];
     ]
    @ List.map lmad_to_sexp p.C.p_lmads
    @ match p.C.p_summary with None -> [] | Some s -> [ summary_to_sexp s ])

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

let state_to_sexp name (c : C.t) =
  let s = C.state c in
  let open_fields (os : C.open_state) =
    S.field "open"
      ([ S.field "start" (ints (Array.to_list os.C.s_start)) ]
      @ List.map level_to_sexp os.C.s_levels
      @ (match os.C.s_top_stride with
        | None -> []
        | Some ts -> [ S.field "top-stride" (ints (Array.to_list ts)) ])
      @ [
          S.field "top-done" [ S.int os.C.s_top_done ];
          S.field "partial" [ S.int os.C.s_partial ];
        ])
  in
  S.field name
    ([
       S.field "dims" [ S.int s.C.s_dims ];
       S.field "budget" [ S.int s.C.s_budget ];
       S.field "max-depth" [ S.int s.C.s_max_depth ];
       S.field "total" [ S.int s.C.s_total ];
     ]
    @ List.map lmad_to_sexp s.C.s_closed
    @ (match s.C.s_current with None -> [] | Some os -> [ open_fields os ])
    @ (match s.C.s_summary with None -> [] | Some sum -> [ summary_to_sexp sum ])
    @
    match s.C.s_last_discarded with
    | None -> []
    | Some p -> [ S.field "last-discarded" (ints (Array.to_list p)) ])

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
