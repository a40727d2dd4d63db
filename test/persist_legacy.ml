(* The tree encoders every persisted format used before the codecs streamed
   through [Ormp_util.Sexp.Writer], preserved verbatim as the reference
   oracle for the streaming equivalence property in [test_persist.ml]
   (same pattern as sequitur_legacy.ml and compressor_legacy.ml): each
   profile was built as a [Sexp.t] tree, then rendered by the renderer in
   [Render] below — indented into files, compact into sealed snapshot and
   epoch payloads and the session report. The streamed bytes must equal
   what these produce. The manifest and heartbeat encoders joined when
   those two files moved onto the writer. Not linked into the library. Do
   not modernize. *)

module S = Ormp_util.Sexp
module Seq_c = Ormp_sequitur.Sequitur
module Omc = Ormp_core.Omc
module Cdc = Ormp_core.Cdc
module Leap = Ormp_leap.Leap
module C = Ormp_lmad.Compressor
module L = Ormp_lmad.Lmad
module Snapshot = Ormp_session.Snapshot
module Session = Ormp_session.Session
module Heartbeat = Ormp_telemetry.Heartbeat
module A = Ormp_memsim.Allocator

(* --- the tree renderer (Sexp.to_string / to_channel / save) ------------ *)

module Render = struct
  open S

  let needs_quoting s =
    s = ""
    || String.exists
         (function
           | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | '\\' | ';' -> true
           | _ -> false)
         s

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' | '\\' ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

  let atom_to_string s = if needs_quoting s then escape s else s

  let rec to_buf buf = function
    | Atom s -> Buffer.add_string buf (atom_to_string s)
    | List xs ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ' ';
          to_buf buf x)
        xs;
      Buffer.add_char buf ')'

  let to_string t =
    let buf = Buffer.create 256 in
    to_buf buf t;
    Buffer.contents buf

  let rec write_indented oc ~depth t =
    match t with
    | Atom _ -> output_string oc (to_string t)
    | List xs when List.for_all (function Atom _ -> true | _ -> false) xs ->
      output_string oc (to_string t)
    | List xs ->
      output_char oc '(';
      List.iteri
        (fun i x ->
          if i > 0 then begin
            output_char oc '\n';
            output_string oc (String.make ((depth + 1) * 2) ' ')
          end;
          write_indented oc ~depth:(depth + 1) x)
        xs;
      output_char oc ')'

  let to_channel oc t =
    write_indented oc ~depth:0 t;
    output_char oc '\n'

  let save path t =
    let oc = open_out_bin path in
    to_channel oc t;
    close_out oc
end

(* --- Grammar_io -------------------------------------------------------- *)

let grammar_to_sexp (name, g) =
  let rules = ref [] in
  Seq_c.iter_rules g (fun id rhs ->
      rules :=
        S.field "rule"
          (S.int id
          :: List.map
               (function `T v -> S.int v | `N id -> S.atom (Printf.sprintf "R%d" id))
               rhs)
        :: !rules);
  S.field "grammar" (S.field "dim" [ S.atom name ] :: List.rev !rules)

(* --- Whomp_io ---------------------------------------------------------- *)

let whomp_version = 2

let group_to_sexp (g : Omc.group_info) =
  S.field "group"
    [ S.int g.Omc.gid; S.int g.Omc.site; S.atom g.Omc.label; S.int g.Omc.population ]

let lifetime_to_sexp (l : Omc.lifetime) =
  S.field "object"
    [
      S.int l.Omc.group;
      S.int l.Omc.serial;
      S.int l.Omc.base;
      S.int l.Omc.size;
      S.int l.Omc.alloc_time;
      S.int (match l.Omc.free_time with None -> -1 | Some t -> t);
      S.int (match l.Omc.free_site with None -> -1 | Some s -> s);
    ]

let whomp_to_sexp (p : Ormp_whomp.Whomp.profile) =
  S.field "ormp-whomp-profile"
    ([
       S.field "version" [ S.int whomp_version ];
       S.field "collected" [ S.int p.Ormp_whomp.Whomp.collected ];
       S.field "wild" [ S.int p.Ormp_whomp.Whomp.wild ];
     ]
    @ List.map grammar_to_sexp p.Ormp_whomp.Whomp.dims
    @ List.map group_to_sexp p.Ormp_whomp.Whomp.groups
    @ List.map lifetime_to_sexp p.Ormp_whomp.Whomp.lifetimes)

(* --- Rasg_io ----------------------------------------------------------- *)

let rasg_to_sexp (p : Ormp_whomp.Rasg.profile) =
  S.field "ormp-rasg-profile"
    [
      S.field "version" [ S.int 1 ];
      S.field "accesses" [ S.int p.Ormp_whomp.Rasg.accesses ];
      grammar_to_sexp ("rasg", p.Ormp_whomp.Rasg.grammar);
    ]

(* --- Lmad_io ----------------------------------------------------------- *)

let ints xs = List.map S.int xs

let level_to_sexp (l : L.level) =
  S.field "level"
    [
      S.field "stride" (ints (Array.to_list l.L.stride));
      S.field "count" [ S.int l.L.count ];
    ]

let lmad_to_sexp (d : L.t) =
  S.field "lmad" (S.field "start" (ints (Array.to_list d.L.start)) :: List.map level_to_sexp d.L.levels)

let summary_to_sexp (s : C.summary) =
  S.field "summary"
    [
      S.field "min" (ints (Array.to_list s.C.min_v));
      S.field "max" (ints (Array.to_list s.C.max_v));
      S.field "granularity" (ints (Array.to_list s.C.granularity));
      S.field "discarded" [ S.int s.C.discarded ];
    ]

(* [Compressor.parts] is gone; its fields are read off the compressor
   directly. *)
let comp_to_sexp name (c : C.t) =
  let s = C.state c in
  S.field name
    ([
       S.field "dims" [ S.int s.C.s_dims ];
       S.field "budget" [ S.int s.C.s_budget ];
       S.field "max-depth" [ S.int s.C.s_max_depth ];
       S.field "total" [ S.int (C.total c) ];
       S.field "discarded" [ S.int (C.discarded c) ];
     ]
    @ List.map lmad_to_sexp (C.lmads c)
    @ match C.summary c with None -> [] | Some s -> [ summary_to_sexp s ])

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

(* --- Leap_io ----------------------------------------------------------- *)

let spans_to_sexp (s : Leap.stream) =
  S.field "spans"
    (List.concat_map
       (fun (sp : Leap.span) -> [ S.int sp.Leap.t_first; S.int sp.Leap.t_last ])
       (List.rev (Ormp_util.Vec.fold_left (fun acc sp -> sp :: acc) [] s.Leap.spans)))
  ::
  (match s.Leap.dspan with
  | None -> []
  | Some sp -> [ S.field "dspan" [ S.int sp.Leap.t_first; S.int sp.Leap.t_last ] ])

let leap_stream_to_sexp (k : Leap.key) (s : Leap.stream) =
  S.field "stream"
    ([
       S.field "instr" [ S.int k.Leap.instr ];
       S.field "group" [ S.int k.Leap.group ];
       comp_to_sexp "comp" s.Leap.comp;
       comp_to_sexp "off" s.Leap.off;
     ]
    @ spans_to_sexp s)

let leap_to_sexp (p : Leap.profile) =
  S.field "ormp-leap-profile"
    ([
       S.field "version" [ S.int 1 ];
       S.field "collected" [ S.int p.Leap.collected ];
       S.field "wild" [ S.int p.Leap.wild ];
       S.field "stores"
         (List.map S.int
            (List.sort compare
               (Hashtbl.fold
                  (fun i is_store acc -> if is_store then i :: acc else acc)
                  p.Leap.store_instrs [])));
       S.field "instrs"
         (List.map S.int
            (List.sort compare (Hashtbl.fold (fun i _ acc -> i :: acc) p.Leap.store_instrs [])));
     ]
    @ (if p.Leap.dropped_streams <> 0 then
         [ S.field "dropped-streams" [ S.int p.Leap.dropped_streams ] ]
       else [])
    @ (if p.Leap.dropped_accesses <> 0 then
         [ S.field "dropped-accesses" [ S.int p.Leap.dropped_accesses ] ]
       else [])
    @ List.map (fun (k, s) -> leap_stream_to_sexp k s) p.Leap.streams)

(* --- Snapshot ---------------------------------------------------------- *)

let opt_atom = function None -> S.atom "-" | Some s -> S.list [ S.atom s ]

let group_state_to_sexp (g : Omc.group_state) =
  S.field "group" [ S.int g.Omc.gs_site; opt_atom g.Omc.gs_type; S.int g.Omc.gs_population ]

let cdc_to_sexp (s : Cdc.state) =
  S.field "cdc"
    ([
       S.field "grouping"
         [ S.atom (match s.Cdc.s_omc.Omc.s_grouping with `Site -> "site" | `Type -> "type") ];
       S.field "clock" [ S.int s.Cdc.s_clock ];
       S.field "wild" [ S.int s.Cdc.s_wild ];
       S.field "unknown-frees" [ S.int s.Cdc.s_omc.Omc.s_unknown_frees ];
     ]
    @ List.map group_state_to_sexp s.Cdc.s_omc.Omc.s_groups
    @ List.map lifetime_to_sexp s.Cdc.s_omc.Omc.s_lifetimes)

let live_stream_to_sexp (k : Leap.key) (s : Leap.stream) =
  S.field "stream"
    ([
       S.field "instr" [ S.int k.Leap.instr ];
       S.field "group" [ S.int k.Leap.group ];
       state_to_sexp "comp" s.Leap.comp;
       state_to_sexp "off" s.Leap.off;
     ]
    @ spans_to_sexp s)

let live_to_sexp (lv : Leap.live) =
  S.field "leap"
    ([
       S.field "stores"
         (List.filter_map (fun (i, st) -> if st then Some (S.int i) else None) lv.Leap.lv_stores);
       S.field "instrs" (List.map (fun (i, _) -> S.int i) lv.Leap.lv_stores);
       S.field "dropped"
         (List.concat_map
            (fun (k : Leap.key) -> [ S.int k.Leap.instr; S.int k.Leap.group ])
            lv.Leap.lv_dropped);
       S.field "dropped-accesses" [ S.int lv.Leap.lv_dropped_accesses ];
     ]
    @ List.map (fun (k, s) -> live_stream_to_sexp k s) lv.Leap.lv_streams)

let epoch_to_sexp (e : Snapshot.epoch) =
  S.field "epoch"
    [
      S.int e.Snapshot.ep_index;
      S.atom e.Snapshot.ep_dim;
      S.atom e.Snapshot.ep_file;
      S.int e.Snapshot.ep_from;
      S.int e.Snapshot.ep_to;
      S.int e.Snapshot.ep_symbols;
    ]

let degradation_to_sexp (d : Snapshot.degradation) =
  S.field "degradation"
    [ S.int d.Snapshot.dg_position; S.atom d.Snapshot.dg_kind; S.atom d.Snapshot.dg_detail ]

let snapshot_to_sexp (t : Snapshot.t) =
  let gi, gg, go, gf = t.Snapshot.whomp in
  S.field "ormp-session-snapshot"
    ([
       S.field "version" [ S.int 1 ];
       S.field "position" [ S.int t.Snapshot.position ];
       S.field "checkpoint" [ S.int t.Snapshot.checkpoint ];
       S.field "journal-crc" [ S.int t.Snapshot.journal_crc ];
       S.field "rotations" [ S.int t.Snapshot.rotations ];
     ]
    @ List.map epoch_to_sexp t.Snapshot.epochs
    @ List.map degradation_to_sexp t.Snapshot.degradations
    @ [
        cdc_to_sexp t.Snapshot.cdc;
        S.field "whomp"
          [
            grammar_to_sexp ("instr", gi);
            grammar_to_sexp ("group", gg);
            grammar_to_sexp ("object", go);
            grammar_to_sexp ("offset", gf);
          ];
        S.field "rasg" [ grammar_to_sexp ("rasg", t.Snapshot.rasg) ];
        live_to_sexp t.Snapshot.leap;
      ])

(* --- Session report ---------------------------------------------------- *)

let outcome_to_sexp (o : Session.outcome) =
  S.field "ormp-session-report"
    ([
       S.field "workload" [ S.atom o.Session.oc_workload ];
       S.field "position" [ S.int o.Session.oc_position ];
       S.field "collected" [ S.int o.Session.oc_collected ];
       S.field "wild" [ S.int o.Session.oc_wild ];
       S.field "checkpoints" [ S.int o.Session.oc_checkpoints ];
       S.field "resumed-from"
         [ S.int (match o.Session.oc_resumed_from with None -> -1 | Some p -> p) ];
       S.field "replayed" [ S.int o.Session.oc_replayed ];
       S.field "rotations" [ S.int o.Session.oc_rotations ];
     ]
    @ List.map epoch_to_sexp o.Session.oc_epochs
    @ List.map degradation_to_sexp o.Session.oc_degradations)

(* --- Session manifest (compact, then a newline) ----------------------- *)

let policy_to_string = function
  | A.Bump -> "bump"
  | A.First_fit -> "first-fit"
  | A.Best_fit -> "best-fit"
  | A.Segregated -> "segregated"
  | A.Randomized n -> Printf.sprintf "randomized:%d" n

let manifest_to_sexp ~workload ~(config : Ormp_vm.Config.t) ~(options : Session.options) =
  S.field "ormp-session"
    [
      S.field "version" [ S.int 1 ];
      S.field "workload" [ S.atom workload ];
      S.field "config"
        [
          S.field "policy" [ S.atom (policy_to_string config.policy) ];
          S.field "heap-base" [ S.int config.heap_base ];
          S.field "static-base" [ S.int config.static_base ];
          S.field "static-gap" [ S.int config.static_gap ];
          S.field "align" [ S.int config.align ];
          S.field "seed" [ S.int config.seed ];
        ];
      S.field "options"
        [
          S.field "checkpoint-every" [ S.int options.checkpoint_every ];
          S.field "watch-every" [ S.int options.watch_every ];
          S.field "grammar-budget" [ S.int options.grammar_budget ];
          S.field "max-streams" [ S.int options.max_streams ];
          S.field "leap-budget"
            [ S.int (match options.leap_budget with None -> -1 | Some b -> b) ];
          S.field "keep" [ S.int options.keep ];
        ];
    ]

(* --- Heartbeat line (compact) ------------------------------------------ *)

let heartbeat_to_sexp (s : Heartbeat.sample) =
  let f v = S.Atom (Printf.sprintf "%.6g" v) in
  S.List
    [
      S.field "wall_s" [ f s.Heartbeat.wall_s ];
      S.field "position" [ S.int s.position ];
      S.field "events_per_sec" [ f s.events_per_sec ];
      S.field "live_objects" [ S.int s.live_objects ];
      S.field "grammar_symbols" [ S.int s.grammar_symbols ];
      S.field "leap_streams" [ S.int s.leap_streams ];
      S.field "journal_bytes" [ S.int s.journal_bytes ];
      S.field "snapshot_bytes" [ S.int s.snapshot_bytes ];
      S.field "last_checkpoint" [ S.int s.last_checkpoint ];
      S.field "degraded" (List.map S.atom s.degraded);
    ]
