(* The tree parser and the tree decoders every loader used before the
   loaders read through [Ormp_util.Sexp.Reader], preserved as the oracle
   for the reader property in [test_persist.ml] (same pattern as
   persist_legacy.ml for the encoders): a file was parsed whole into a
   [Sexp.t], then each format's [*_of_sexp] picked its fields out by name.
   A streamed load must decode what these decode. Not linked into the
   library. Do not modernize: the only edits are the ones the library's
   own changes forced (the profile compressor is rebuilt with
   [Compressor.of_state], [Compressor.of_parts] being gone). *)

module Seq_c = Ormp_sequitur.Sequitur
module Omc = Ormp_core.Omc
module Cdc = Ormp_core.Cdc
module Leap = Ormp_leap.Leap
module C = Ormp_lmad.Compressor
module L = Ormp_lmad.Lmad
module Snapshot = Ormp_session.Snapshot
module Session = Ormp_session.Session
module Heartbeat = Ormp_telemetry.Heartbeat
module Whomp = Ormp_whomp.Whomp

module S = struct
  include Ormp_util.Sexp

  (* --- the tree parser (Sexp.of_string / Sexp.load) ----------------------- *)


  exception Parse_error of string

  let parse_all (s : string) =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | Some ';' ->
        (* comment to end of line *)
        while peek () <> None && peek () <> Some '\n' do
          advance ()
        done;
        skip_ws ()
      | _ -> ()
    in
    let parse_quoted () =
      advance ();
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> raise (Parse_error "unterminated string")
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some c -> Buffer.add_char buf c
          | None -> raise (Parse_error "dangling escape"));
          advance ();
          go ()
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_bare () =
      let start = !pos in
      let rec go () =
        match peek () with
        | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';') | None -> ()
        | Some _ ->
          advance ();
          go ()
      in
      go ();
      String.sub s start (!pos - start)
    in
    let rec parse_one () =
      skip_ws ();
      match peek () with
      | None -> raise (Parse_error "unexpected end of input")
      | Some '(' ->
        advance ();
        let items = ref [] in
        let rec go () =
          skip_ws ();
          match peek () with
          | Some ')' -> advance ()
          | None -> raise (Parse_error "unterminated list")
          | Some _ ->
            items := parse_one () :: !items;
            go ()
        in
        go ();
        List (List.rev !items)
      | Some ')' -> raise (Parse_error "unexpected )")
      | Some '"' -> Atom (parse_quoted ())
      | Some _ -> Atom (parse_bare ())
    in
    let result = parse_one () in
    skip_ws ();
    if !pos <> n then raise (Parse_error "trailing input");
    result

  let of_string s =
    match parse_all s with
    | t -> Ok t
    | exception Parse_error msg -> Error msg

  let load path =
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic ->
      let len = in_channel_length ic in
      let content = really_input_string ic len in
      close_in ic;
      of_string content


  (* --- the decoding kit ------------------------------------------------------ *)


  let as_int = function
    | Atom s -> (
      match int_of_string_opt s with Some n -> Ok n | None -> Error ("not an int: " ^ s))
    | List _ -> Error "expected int, got list"

  let as_atom = function Atom s -> Ok s | List _ -> Error "expected atom, got list"
  let as_list = function List xs -> Ok xs | Atom s -> Error ("expected list, got atom " ^ s)

  let assoc name t =
    match t with
    | Atom _ -> Error "expected list of fields"
    | List fields -> (
      let found =
        List.find_opt
          (function List (Atom n :: _) when n = name -> true | _ -> false)
          fields
      in
      match found with
      | Some (List (_ :: args)) -> Ok args
      | _ -> Error ("missing field " ^ name))

  (* --- decoding kit ------------------------------------------------------ *)

  let ( let* ) = Result.bind

  let rec collect_results = function
    | [] -> Ok []
    | Ok x :: rest ->
      let* xs = collect_results rest in
      Ok (x :: xs)
    | Error e :: _ -> Error e

  let rec int_list = function
    | [] -> Ok []
    | x :: rest ->
      let* n = as_int x in
      let* ns = int_list rest in
      Ok (n :: ns)

  let single conv name t =
    let* args = assoc name t in
    match args with [ x ] -> conv x | _ -> Error ("bad field " ^ name)

  let int_field name t = single as_int name t
  let atom_field name t = single as_atom name t

  let rec pick items name f =
    match items with
    | [] -> Ok []
    | List (Atom n :: args) :: rest when n = name ->
      let* x = f args in
      let* xs = pick rest name f in
      Ok (x :: xs)
    | _ :: rest -> pick rest name f
end

let ( let* ) = Result.bind

module Grammar = struct
  let sym_of_atom a =
    if String.length a > 1 && a.[0] = 'R' then
      match int_of_string_opt (String.sub a 1 (String.length a - 1)) with
      | Some r -> Ok (`N r)
      | None -> Error ("bad symbol " ^ a)
    else
      match int_of_string_opt a with
      | Some v -> Ok (`T v)
      | None -> Error ("bad symbol " ^ a)

  (* [args] are the elements after the [grammar] atom. The live grammar is
     rebuilt with {!Ormp_sequitur.Sequitur.of_rules} (expand + re-push), which
     also rejects cyclic and dangling rule references from corrupt files and
     any listing other than the one the rebuild holds; its errors name the
     grammar. *)
  let of_sexp args =
    let body = S.List (S.Atom "_" :: args) in
    let* dim_args = S.assoc "dim" body in
    let* dim = match dim_args with [ a ] -> S.as_atom a | _ -> Error "bad dim" in
    let* rules =
      List.fold_left
        (fun acc item ->
          let* rules = acc in
          match item with
          | S.List (S.Atom "rule" :: S.Atom id_s :: rhs) -> (
            match int_of_string_opt id_s with
            | None -> Error ("bad rule id " ^ id_s)
            | Some id ->
              let* syms =
                S.collect_results
                  (List.map
                     (fun s ->
                       let* a = S.as_atom s in
                       sym_of_atom a)
                     rhs)
              in
              Ok ((id, syms) :: rules))
          | _ -> Ok rules)
        (Ok []) args
    in
    match Seq_c.of_rules ~bound:max_int (List.rev rules) with
    | Ok g -> Ok (dim, g)
    | Error e -> Error (Printf.sprintf "grammar %s: %s" dim e)
end

module Whomp_profile = struct
  let version = 2

  let group_of_sexp args =
    match args with
    | [ gid; site; label; population ] ->
      let* gid = S.as_int gid in
      let* site = S.as_int site in
      let* label = S.as_atom label in
      let* population = S.as_int population in
      Ok { Omc.gid; site; label; population }
    | _ -> Error "bad group"

  let lifetime_of_sexp args =
    let* xs = S.int_list args in
    match xs with
    | [ group; serial; base; size; alloc_time; free; free_site ] ->
      Ok
        {
          Omc.group;
          serial;
          base;
          size;
          alloc_time;
          free_time = (if free < 0 then None else Some free);
          free_site = (if free_site < 0 then None else Some free_site);
        }
    | _ -> Error "bad object record"

  let of_sexp t =
    let* args = S.as_list t in
    match args with
    | S.Atom "ormp-whomp-profile" :: rest ->
      let body = S.List (S.Atom "_" :: rest) in
      let* v = S.int_field "version" body in
      if v <> version then Error (Printf.sprintf "unsupported version %d" v)
      else
        let* collected = S.int_field "collected" body in
        let* wild = S.int_field "wild" body in
        let* dims = S.pick rest "grammar" Grammar.of_sexp in
        let* groups = S.pick rest "group" group_of_sexp in
        let* lifetimes = S.pick rest "object" lifetime_of_sexp in
        Ok { Whomp.dims; collected; wild; groups; lifetimes; elapsed = 0.0 }
    | _ -> Error "not an ormp-whomp-profile"
end

module Rasg = struct
  let version = 1

  let of_sexp t =
    let* args = S.as_list t in
    match args with
    | S.Atom "ormp-rasg-profile" :: rest ->
      let body = S.List (S.Atom "_" :: rest) in
      let* v = S.int_field "version" body in
      if v <> version then Error (Printf.sprintf "unsupported version %d" v)
      else
        let* accesses = S.int_field "accesses" body in
        let* gargs = S.assoc "grammar" body in
        let* _, grammar = Grammar.of_sexp gargs in
        Ok { Ormp_whomp.Rasg.grammar; accesses; elapsed = 0.0 }
    | _ -> Error "not an ormp-rasg-profile"
end

module Lmad = struct
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
      (match summary with
      | Some s when s.C.discarded <> discarded -> invalid_arg "summary count mismatch"
      | None when discarded <> 0 -> invalid_arg "missing summary"
      | _ -> ());
      C.of_state
        {
          C.s_dims = dims;
          s_budget = budget;
          s_max_depth = max_depth;
          s_closed = lmads;
          s_current = None;
          s_total = total;
          s_summary = summary;
          s_last_discarded = None;
        }
    with
    | c -> Ok c
    | exception Invalid_argument msg -> Error msg

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
end

module Leap_profile = struct
  let version = 1

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
    let* comp = Lmad.comp_of_sexp "comp" t in
    let* off = Lmad.comp_of_sexp "off" t in
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
end

module Snapshot_payload = struct
  let version = 1

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
    let* s_lifetimes = S.pick args "object" Whomp_profile.lifetime_of_sexp in
    Ok
      {
        Cdc.s_omc = { Omc.s_grouping = grouping; s_groups; s_lifetimes; s_unknown_frees };
        s_clock;
        s_wild;
      }

  let stream_of_sexp t =
    let* instr = S.int_field "instr" t in
    let* group = S.int_field "group" t in
    let* comp = Lmad.state_of_sexp "comp" t in
    let* off = Lmad.state_of_sexp "off" t in
    let* spans, dspan = Leap_profile.spans_of_sexp t in
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
      Ok { Snapshot.ep_index; ep_dim; ep_file; ep_from; ep_to; ep_symbols }
    | _ -> Error "bad epoch"

  let degradation_of_sexp args =
    match args with
    | [ pos; kind; detail ] ->
      let* dg_position = S.as_int pos in
      let* dg_kind = S.as_atom kind in
      let* dg_detail = S.as_atom detail in
      Ok { Snapshot.dg_position; dg_kind; dg_detail }
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
    let* _, g = Grammar.of_sexp found in
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
            Snapshot.position;
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
end

module Manifest = struct
  module A = Ormp_memsim.Allocator

  let policy_of_string s =
    match s with
    | "bump" -> Ok A.Bump
    | "first-fit" -> Ok A.First_fit
    | "best-fit" -> Ok A.Best_fit
    | "segregated" -> Ok A.Segregated
    | _ -> (
      match String.index_opt s ':' with
      | Some i
        when String.sub s 0 i = "randomized" ->
        (match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some n -> Ok (A.Randomized n)
        | None -> Error ("bad policy " ^ s))
      | _ -> Error ("unknown policy " ^ s))

  let manifest_of_sexp t =
    let* args = S.as_list t in
    match args with
    | S.Atom "ormp-session" :: rest ->
      let body = S.List (S.Atom "_" :: rest) in
      let* v = S.int_field "version" body in
      if v <> 1 then Error (Printf.sprintf "unsupported manifest version %d" v)
      else
        let* workload = S.atom_field "workload" body in
        (* A daemon session's manifest has no config. *)
        let* config =
          match S.assoc "config" body with
          | Error _ -> Ok None
          | Ok cargs ->
            let cbody = S.List (S.Atom "_" :: cargs) in
            let* policy_s = S.atom_field "policy" cbody in
            let* policy = policy_of_string policy_s in
            let* heap_base = S.int_field "heap-base" cbody in
            let* static_base = S.int_field "static-base" cbody in
            let* static_gap = S.int_field "static-gap" cbody in
            let* align = S.int_field "align" cbody in
            let* seed = S.int_field "seed" cbody in
            Ok (Some { Ormp_vm.Config.policy; heap_base; static_base; static_gap; align; seed })
        in
        let* oargs = S.assoc "options" body in
        let obody = S.List (S.Atom "_" :: oargs) in
        let* checkpoint_every = S.int_field "checkpoint-every" obody in
        let* watch_every = S.int_field "watch-every" obody in
        let* grammar_budget = S.int_field "grammar-budget" obody in
        let* max_streams = S.int_field "max-streams" obody in
        let* leap_budget = S.int_field "leap-budget" obody in
        let* keep = S.int_field "keep" obody in
        Ok
          ( workload,
            config,
            {
              Session.checkpoint_every;
              watch_every;
              grammar_budget;
              max_streams;
              leap_budget = (if leap_budget < 0 then None else Some leap_budget);
              keep;
            } )
    | _ -> Error "not an ormp-session manifest"
end

module Heartbeat_line = struct
  let of_sexp sexp =
    let ( let* ) = Result.bind in
    let int1 name =
      match S.assoc name sexp with
      | Ok [ v ] -> S.as_int v
      | Ok _ -> Error (name ^ ": expected one value")
      | Error e -> Error e
    in
    let float1 name =
      match S.assoc name sexp with
      | Ok [ v ] -> Result.map float_of_string (S.as_atom v)
      | Ok _ -> Error (name ^ ": expected one value")
      | Error e -> Error e
    in
    try
      let* wall_s = float1 "wall_s" in
      let* position = int1 "position" in
      let* events_per_sec = float1 "events_per_sec" in
      let* live_objects = int1 "live_objects" in
      let* grammar_symbols = int1 "grammar_symbols" in
      let* leap_streams = int1 "leap_streams" in
      let* journal_bytes = int1 "journal_bytes" in
      let* snapshot_bytes = int1 "snapshot_bytes" in
      let* last_checkpoint = int1 "last_checkpoint" in
      let degraded =
        match S.assoc "degraded" sexp with
        | Ok atoms -> List.filter_map (fun a -> Result.to_option (S.as_atom a)) atoms
        | Error _ -> []
      in
      Ok
        {
          Heartbeat.wall_s;
          position;
          events_per_sec;
          live_objects;
          grammar_symbols;
          leap_streams;
          journal_bytes;
          snapshot_bytes;
          last_checkpoint;
          degraded;
        }
    with Failure _ -> Error "heartbeat: malformed number"
end
