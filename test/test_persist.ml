(* The tree parser and decoding kit live on as the oracle. *)
module Sexp = Load_legacy.S

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sexp                                                                *)
(* ------------------------------------------------------------------ *)

let roundtrip t =
  match Sexp.of_string (Sexp.to_string t) with
  | Ok t' -> Alcotest.(check string) "roundtrip" (Sexp.to_string t) (Sexp.to_string t')
  | Error msg -> Alcotest.fail ("parse: " ^ msg)

let test_sexp_atoms () =
  roundtrip (Sexp.atom "hello");
  roundtrip (Sexp.int (-42));
  roundtrip (Sexp.atom "with space");
  roundtrip (Sexp.atom "quote\"and\\slash");
  roundtrip (Sexp.atom "");
  roundtrip (Sexp.atom "line\nbreak")

let test_sexp_lists () =
  roundtrip (Sexp.list []);
  roundtrip (Sexp.list [ Sexp.int 1; Sexp.list [ Sexp.atom "a"; Sexp.int 2 ]; Sexp.atom "b" ]);
  roundtrip (Sexp.field "name" [ Sexp.int 1; Sexp.int 2 ])

let test_sexp_parse_errors () =
  let fails s = match Sexp.of_string s with Ok _ -> false | Error _ -> true in
  check_bool "unterminated list" true (fails "(a b");
  check_bool "stray paren" true (fails ")");
  check_bool "trailing garbage" true (fails "(a) b");
  check_bool "unterminated string" true (fails "\"abc");
  check_bool "empty input" true (fails "   ")

let test_sexp_comments_and_ws () =
  match Sexp.of_string "  ; header comment\n (a ; inline\n b)  " with
  | Ok t -> Alcotest.(check string) "parsed" "(a b)" (Sexp.to_string t)
  | Error msg -> Alcotest.fail msg

let test_sexp_accessors () =
  let t = Sexp.list [ Sexp.field "x" [ Sexp.int 7 ]; Sexp.field "y" [ Sexp.atom "z" ] ] in
  (match Sexp.assoc "x" t with
  | Ok [ v ] -> check_int "field x" 7 (Result.get_ok (Sexp.as_int v))
  | _ -> Alcotest.fail "assoc x");
  check_bool "missing field" true (Result.is_error (Sexp.assoc "zz" t));
  check_bool "as_int rejects list" true (Result.is_error (Sexp.as_int (Sexp.list [])));
  check_bool "as_atom rejects list" true (Result.is_error (Sexp.as_atom (Sexp.list [])));
  check_bool "as_list rejects atom" true (Result.is_error (Sexp.as_list (Sexp.atom "a")))

let test_sexp_file_io () =
  let path = Filename.temp_file "ormp_sexp" ".sexp" in
  let t = Sexp.field "root" [ Sexp.int 1; Sexp.list [ Sexp.atom "nested"; Sexp.int 2 ] ] in
  Sexp.save path t;
  (match Sexp.load path with
  | Ok t' -> Alcotest.(check string) "file roundtrip" (Sexp.to_string t) (Sexp.to_string t')
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let prop_sexp_roundtrip =
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          if n <= 0 then map (fun i -> Sexp.int i) int
          else
            frequency
              [
                (2, map (fun i -> Sexp.int i) int);
                (2, map (fun s -> Sexp.atom s) (string_size (int_range 0 8)));
                (1, map (fun l -> Sexp.list l) (list_size (int_range 0 4) (self (n / 2))));
              ]))
  in
  QCheck.Test.make ~name:"sexp print/parse roundtrip" ~count:500
    (QCheck.make ~print:Sexp.to_string gen)
    (fun t ->
      match Sexp.of_string (Sexp.to_string t) with
      | Ok t' -> Sexp.to_string t = Sexp.to_string t'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* LEAP profile round-trip                                             *)
(* ------------------------------------------------------------------ *)

let leap_profile program = Ormp_leap.Leap.profile program

let same_deps p q =
  Ormp_leap.Mdf.compute p = Ormp_leap.Mdf.compute q
  && Ormp_leap.Strides.strongly_strided p = Ormp_leap.Strides.strongly_strided q

let test_leap_roundtrip_regular () =
  let p = leap_profile (Ormp_workloads.Micro.array_stride ~elems:256 ~sweeps:4 ()) in
  let path = Filename.temp_file "ormp_leap" ".ormp" in
  Ormp_persist.Leap_io.save path p;
  (match Ormp_persist.Leap_io.load path with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
    check_int "collected" p.Ormp_leap.Leap.collected q.Ormp_leap.Leap.collected;
    check_int "wild" p.Ormp_leap.Leap.wild q.Ormp_leap.Leap.wild;
    check_int "streams" (List.length p.Ormp_leap.Leap.streams)
      (List.length q.Ormp_leap.Leap.streams);
    check_bool "loads/stores preserved" true
      (Ormp_leap.Leap.loads p = Ormp_leap.Leap.loads q
      && Ormp_leap.Leap.stores p = Ormp_leap.Leap.stores q);
    check_bool "post-processors agree" true (same_deps p q);
    Alcotest.(check (float 1e-9))
      "capture stats preserved"
      (Ormp_leap.Leap.accesses_captured p)
      (Ormp_leap.Leap.accesses_captured q));
  Sys.remove path

let test_leap_roundtrip_lossy () =
  (* hash_probe overflows budgets: summaries and dspans must survive. *)
  let p = leap_profile (Ormp_workloads.Micro.hash_probe ~buckets:512 ~ops:4096 ()) in
  let path = Filename.temp_file "ormp_leap" ".ormp" in
  Ormp_persist.Leap_io.save path p;
  (match Ormp_persist.Leap_io.load path with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
    check_bool "post-processors agree" true (same_deps p q);
    Alcotest.(check (float 1e-9))
      "instructions captured preserved"
      (Ormp_leap.Leap.instructions_captured p)
      (Ormp_leap.Leap.instructions_captured q);
    check_int "byte size close" (Ormp_leap.Leap.byte_size p) (Ormp_leap.Leap.byte_size q));
  Sys.remove path

let test_leap_load_errors () =
  check_bool "missing file" true (Result.is_error (Ormp_persist.Leap_io.load "/nonexistent"));
  let path = Filename.temp_file "ormp_leap" ".ormp" in
  let oc = open_out path in
  output_string oc "(wrong-tag)";
  close_out oc;
  check_bool "wrong tag" true (Result.is_error (Ormp_persist.Leap_io.load path));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Corruption paths: load must return Error, never raise               *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_tempfile f =
  let path = Filename.temp_file "ormp_corrupt" ".ormp" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* Rewrite the first "(field ...)" occurrence to "(field value)"; the
   saved formats keep scalar fields flat, so scanning to the next ')'
   is safe. *)
let replace_field field value s =
  match find_sub s ("(" ^ field) with
  | None -> Alcotest.failf "field %s not present in file" field
  | Some i ->
    let j = String.index_from s i ')' in
    String.sub s 0 i
    ^ Printf.sprintf "(%s %s" field value
    ^ String.sub s j (String.length s - j)

(* Every mutation of a valid profile file must come back as a clean
   [Error _] from load — a raised exception here would take down any
   tool that inspects untrusted profile files. *)
let corruption_cases load save =
  let errs name loader = check_bool name true (Result.is_error loader) in
  with_tempfile (fun path ->
      save path;
      let good = read_file path in
      (* Sanity: the untouched file still loads. *)
      check_bool "pristine file loads" true (Result.is_ok (load path));
      write_file path (String.sub good 0 (String.length good / 2));
      errs "truncated to half" (load path);
      write_file path (String.sub good 0 (String.length good - 2));
      errs "closing paren missing" (load path);
      write_file path (replace_field "collected" "banana" good);
      errs "non-numeric count" (load path);
      write_file path (replace_field "version" "99" good);
      errs "future version" (load path);
      write_file path "";
      errs "empty file" (load path))

let test_leap_corruption () =
  let p = leap_profile (Ormp_workloads.Micro.hash_probe ~buckets:128 ~ops:1024 ()) in
  corruption_cases Ormp_persist.Leap_io.load (fun path -> Ormp_persist.Leap_io.save path p)

let test_whomp_corruption () =
  let p = Ormp_whomp.Whomp.profile (Ormp_workloads.Micro.churn ~live:8 ~ops:600 ()) in
  corruption_cases Ormp_persist.Whomp_io.load (fun path -> Ormp_persist.Whomp_io.save path p)

(* A grammar whose rules reference each other in a cycle would send a
   naive expander into an infinite loop; the loader must detect it. *)
let test_whomp_cyclic_grammar () =
  let p = Ormp_whomp.Whomp.profile (Ormp_workloads.Micro.matrix ~n:4 ()) in
  with_tempfile (fun path ->
      Ormp_persist.Whomp_io.save path p;
      let good = read_file path in
      (* Insert a self-reference at the head of the first start rule:
         "(rule 0 ..." becomes "(rule 0 R0 ...", so expanding R0 visits
         R0 again. *)
      let cyclic =
        match find_sub good "(rule 0" with
        | None -> Alcotest.fail "no start rule in file"
        | Some i ->
          String.sub good 0 (i + 7) ^ " R0" ^ String.sub good (i + 7) (String.length good - i - 7)
      in
      write_file path cyclic;
      check_bool "cyclic grammar rejected" true
        (Result.is_error (Ormp_persist.Whomp_io.load path)))

(* A listing that expands to the recorded accesses but is not the grammar
   the compressor built must not load: continuing it would continue a
   different grammar. Here [linked_list]'s instr start rule is inlined one
   level, "R2058 R2058" as "R1033 R1033 R1033 R1033", which repeats a
   digram and leaves R2058 unused. *)
let test_whomp_noncanonical_grammar () =
  let p =
    match Ormp_session.Session.find_workload "linked_list" with
    | Ok program -> Ormp_whomp.Whomp.profile program
    | Error e -> Alcotest.fail e
  in
  with_tempfile (fun path ->
      Ormp_persist.Whomp_io.save path p;
      check_bool "pristine profile loads" true (Result.is_ok (Ormp_persist.Whomp_io.load path));
      let good = read_file path in
      let rule0 = "(rule 0 R2058 R2058)" in
      match find_sub good rule0 with
      | None -> Alcotest.fail "linked_list's instr start rule is no longer R2058 R2058"
      | Some i ->
        let j = i + String.length rule0 in
        write_file path
          (String.sub good 0 i ^ "(rule 0 R1033 R1033 R1033 R1033)"
          ^ String.sub good j (String.length good - j));
        match Ormp_persist.Whomp_io.load path with
        | Ok _ -> Alcotest.fail "a non-canonical grammar loaded"
        | Error e ->
          check_bool (Printf.sprintf "error names the grammar (%s)" e) true
            (find_sub e "grammar instr" <> None))

(* ------------------------------------------------------------------ *)
(* WHOMP profile round-trip                                            *)
(* ------------------------------------------------------------------ *)

let test_whomp_roundtrip () =
  let p = Ormp_whomp.Whomp.profile (Ormp_workloads.Micro.linked_list ~nodes:16 ~sweeps:4 ()) in
  let path = Filename.temp_file "ormp_whomp" ".ormp" in
  Ormp_persist.Whomp_io.save path p;
  (match Ormp_persist.Whomp_io.load path with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
    check_int "collected" p.Ormp_whomp.Whomp.collected q.Ormp_whomp.Whomp.collected;
    check_int "grammar sizes identical" (Ormp_whomp.Whomp.omsg_size p)
      (Ormp_whomp.Whomp.omsg_size q);
    check_int "byte sizes identical" (Ormp_whomp.Whomp.omsg_bytes p)
      (Ormp_whomp.Whomp.omsg_bytes q);
    check_bool "streams identical" true
      (List.for_all2
         (fun (d1, g1) (d2, g2) ->
           d1 = d2 && Ormp_sequitur.Sequitur.expand g1 = Ormp_sequitur.Sequitur.expand g2)
         p.Ormp_whomp.Whomp.dims q.Ormp_whomp.Whomp.dims);
    check_int "lifetimes preserved"
      (List.length p.Ormp_whomp.Whomp.lifetimes)
      (List.length q.Ormp_whomp.Whomp.lifetimes);
    check_bool "groups preserved" true (p.Ormp_whomp.Whomp.groups = q.Ormp_whomp.Whomp.groups));
  Sys.remove path

let test_whomp_expand_after_load () =
  let program = Ormp_workloads.Micro.matrix ~n:6 () in
  let p = Ormp_whomp.Whomp.profile program in
  let path = Filename.temp_file "ormp_whomp" ".ormp" in
  Ormp_persist.Whomp_io.save path p;
  (match Ormp_persist.Whomp_io.load path with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
    let tuples_p = Ormp_whomp.Whomp.expand p and tuples_q = Ormp_whomp.Whomp.expand q in
    check_bool "lossless through the file" true (tuples_p = tuples_q));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Streaming writer vs the legacy tree encoders                        *)
(* ------------------------------------------------------------------ *)

module W = Ormp_util.Sexp.Writer
module Legacy = Persist_legacy
module Seq_c = Ormp_sequitur.Sequitur
module Micro = Ormp_workloads.Micro
module Omc = Ormp_core.Omc
module Snapshot = Ormp_session.Snapshot
module Session = Ormp_session.Session
module Pipeline = Ormp_session.Pipeline

(* Bytes of a file written by [save path], through one scratch path. *)
let file_bytes save =
  with_tempfile (fun path ->
      save path;
      read_file path)

(* The streamed file equals the legacy [Sexp.save] of the legacy tree. *)
let same_file save legacy_tree =
  file_bytes save = file_bytes (fun path -> Legacy.Render.save path legacy_tree)

(* A streamed payload equals the legacy [Sexp.to_string]. *)
let same_payload write x legacy_tree = W.render write x = Legacy.Render.to_string legacy_tree

let grammar_of syms =
  let g = Seq_c.create () in
  List.iter (Seq_c.push g) syms;
  g

(* Terminals that repeat (so rules form), plus the extremes and
   arbitrary negatives. *)
let gen_symbol =
  QCheck.Gen.(
    frequency
      [
        (8, int_range (-3) 5);
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; -1; 0 ]);
        (1, int);
      ])

let gen_symbols = QCheck.Gen.(list_size (int_range 0 200) gen_symbol)

(* Labels that need quoting (space, quote, backslash, newline, semicolon,
   parentheses, the empty label) and ones that do not. *)
let gen_label =
  let special = [ " "; "\""; "\\"; "\n"; ";"; ""; "a b"; "(x)"; "tab\there"; "cr\r" ] in
  let chars = [ 'a'; 'Z'; '0'; '-'; ' '; '"'; '\\'; '\n'; ';'; '('; ')' ] in
  QCheck.Gen.(
    frequency
      [
        (3, oneofl (special @ [ "site3"; "node" ]));
        (2, string_size ~gen:(oneofl chars) (int_range 0 6));
      ])

let check_grammar name syms =
  let g = grammar_of syms in
  let tree = Legacy.grammar_to_sexp (name, g) in
  let rasg = { Ormp_whomp.Rasg.grammar = g; accesses = List.length syms; elapsed = 0.0 } in
  same_file (fun path -> W.to_file path Ormp_persist.Grammar_io.write (name, g)) tree
  && same_payload Ormp_persist.Grammar_io.write (name, g) tree
  && same_file (fun path -> Ormp_persist.Rasg_io.save path rasg) (Legacy.rasg_to_sexp rasg)

let test_grammar_edge_cases () =
  List.iter
    (fun syms -> check_bool "grammar = legacy" true (check_grammar "rasg" syms))
    [
      [];
      [ 7 ];
      [ -7 ];
      [ min_int ];
      [ max_int ];
      [ max_int; min_int; max_int; min_int; max_int; min_int ];
    ]

let prop_grammar_eq_legacy =
  QCheck.Test.make ~name:"grammar and rasg codecs = legacy on random inputs" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(pair string (list int))
       QCheck.Gen.(pair gen_label gen_symbols))
    (fun (name, syms) -> check_grammar name syms)

(* A WHOMP profile and a snapshot whose labels, types, file names and
   degradation details all need quoting. *)
let prop_labels_eq_legacy =
  let gen =
    QCheck.Gen.(
      quad
        (list_size (int_range 0 6) gen_label)
        (list_size (int_range 0 4) gen_symbols)
        (list_size (int_range 0 3) (pair gen_label gen_label))
        (int_range 0 5))
  in
  QCheck.Test.make ~name:"quoted labels = legacy" ~count:200 (QCheck.make gen)
    (fun (labels, streams, details, n_objects) ->
      let dims =
        List.mapi
          (fun i d -> (d, grammar_of (Option.value ~default:[] (List.nth_opt streams i))))
          [ "instr"; "group"; "object"; "offset" ]
      in
      let grammar i = snd (List.nth dims i) in
      let groups =
        List.mapi
          (fun gid label -> { Omc.gid; site = 100 + gid; label; population = gid * 3 })
          labels
      in
      let lifetimes =
        List.init n_objects (fun i ->
            {
              Omc.group = i mod 2;
              serial = i;
              base = 4096 * (i + 1);
              size = 16 * (i + 1);
              alloc_time = i;
              free_time = (if i mod 2 = 0 then Some (i + 10) else None);
              free_site = (if i mod 3 = 0 then Some (i + 20) else None);
            })
      in
      let whomp =
        { Ormp_whomp.Whomp.dims; collected = 12; wild = -1; groups; lifetimes; elapsed = 0.0 }
      in
      let group_state i label =
        {
          Omc.gs_site = i;
          gs_type = (if i mod 2 = 0 then Some label else None);
          gs_population = i;
        }
      in
      let cdc =
        {
          Ormp_core.Cdc.s_omc =
            {
              Omc.s_grouping = `Type;
              s_groups = List.mapi group_state labels;
              s_lifetimes = lifetimes;
              s_unknown_frees = 2;
            };
          s_clock = 99;
          s_wild = 3;
        }
      in
      let epoch i (dim, file) =
        {
          Snapshot.ep_index = i + 1;
          ep_dim = dim;
          ep_file = file;
          ep_from = i;
          ep_to = i + 1;
          ep_symbols = 5;
        }
      in
      let degradation i (kind, detail) =
        { Snapshot.dg_position = i; dg_kind = kind; dg_detail = detail }
      in
      let snap =
        {
          Snapshot.position = 40;
          checkpoint = 2;
          journal_crc = 0xFFFFFFFF;
          rotations = List.length details;
          epochs = List.mapi epoch details;
          degradations = List.mapi degradation details;
          cdc;
          whomp = (grammar 0, grammar 1, grammar 2, grammar 3);
          rasg = grammar 3;
          leap = Ormp_leap.Leap.live (Ormp_leap.Leap.collector ());
        }
      in
      same_file (fun path -> Ormp_persist.Whomp_io.save path whomp) (Legacy.whomp_to_sexp whomp)
      && same_payload Ormp_persist.Whomp_io.write whomp (Legacy.whomp_to_sexp whomp)
      && same_payload Snapshot.write snap (Legacy.snapshot_to_sexp snap))

(* Random small instances of every micro workload, at random seeds. *)
let gen_micro =
  let up_to k = QCheck.Gen.int_range 2 k in
  let prog name gen = QCheck.Gen.map (fun p -> (name, p)) gen in
  QCheck.Gen.(
    triple
      (oneof
         [
           prog "linked_list"
             (map2 (fun nodes sweeps -> Micro.linked_list ~nodes ~sweeps ()) (up_to 24) (up_to 3));
           prog "array_stride"
             (map2 (fun elems sweeps -> Micro.array_stride ~elems ~sweeps ()) (up_to 64) (up_to 3));
           prog "matrix" (map (fun n -> Micro.matrix ~n ()) (up_to 5));
           prog "binary_tree"
             (map2
                (fun nodes searches -> Micro.binary_tree ~nodes ~searches ())
                (up_to 32) (up_to 32));
           prog "hash_probe"
             (map2 (fun buckets ops -> Micro.hash_probe ~buckets ~ops ()) (up_to 64) (up_to 200));
           prog "random_walk"
             (map2 (fun nodes steps -> Micro.random_walk ~nodes ~steps ()) (up_to 32) (up_to 200));
           prog "churn" (map2 (fun live ops -> Micro.churn ~live ~ops ()) (up_to 16) (up_to 300));
           prog "two_site_list"
             (map2
                (fun nodes sweeps -> Micro.two_site_list ~nodes ~sweeps ())
                (up_to 24) (up_to 3));
         ])
      (int_range 0 1000) gen_label)

let prop_micro_eq_legacy =
  let print ((name, _), seed, label) = Printf.sprintf "%s seed %d workload %S" name seed label in
  QCheck.Test.make ~name:"micro workload profiles, snapshots and report = legacy" ~count:25
    (QCheck.make ~print gen_micro)
    (fun ((_, program), seed, label) ->
      let config = { Ormp_vm.Config.default with seed } in
      let pipe, _ = Pipeline.run ~config program in
      let whomp = Pipeline.whomp_profile pipe ~elapsed:0.0 in
      let rasg = Pipeline.rasg_profile pipe ~elapsed:0.0 in
      let leap = Pipeline.leap_profile pipe ~elapsed:0.0 in
      let snap =
        match Pipeline.grammars pipe with
        | [ (_, gi); (_, gg); (_, go); (_, gf); (_, rasg) ] ->
          {
            Snapshot.position = Pipeline.position pipe;
            checkpoint = 1;
            journal_crc = seed;
            rotations = 0;
            epochs = [];
            degradations = [ { Snapshot.dg_position = 1; dg_kind = "rotate"; dg_detail = label } ];
            cdc = Pipeline.cdc_state pipe;
            whomp = (gi, gg, go, gf);
            rasg;
            leap = Pipeline.leap_live pipe;
          }
        | _ -> QCheck.Test.fail_report "not five grammars"
      in
      let legacy_snap = Legacy.snapshot_to_sexp snap in
      (* A session of the same program under a workload name that needs
         quoting: its report, checkpoints and epoch spills take the
         session's own path. *)
      let dir = Files.tmpdir () in
      let same_report =
        Fun.protect
          ~finally:(fun () -> Files.rm_rf dir)
          (fun () ->
            let options =
              {
                Session.default_options with
                checkpoint_every = 97;
                watch_every = 50;
                grammar_budget = 60;
              }
            in
            let s = Session.start ~options ~dir ~workload:label () in
            ignore (Ormp_vm.Runner.run ~config program (Session.append s));
            let outcome = Session.finish s ~elapsed:0.0 in
            Files.read_file (Filename.concat dir Session.report_file)
            = Legacy.Render.to_string (Legacy.outcome_to_sexp outcome) ^ "\n")
      in
      same_file (fun path -> Ormp_persist.Whomp_io.save path whomp) (Legacy.whomp_to_sexp whomp)
      && same_file (fun path -> Ormp_persist.Rasg_io.save path rasg) (Legacy.rasg_to_sexp rasg)
      && same_file (fun path -> Ormp_persist.Leap_io.save path leap) (Legacy.leap_to_sexp leap)
      && same_payload Snapshot.write snap legacy_snap
      && file_bytes (fun path -> Snapshot.save path snap)
         = Ormp_session.Storage.seal (Legacy.Render.to_string legacy_snap)
      && same_report)

(* Trees: Sexp.to_string and Sexp.save are walks over the writer. *)
let prop_tree_eq_legacy =
  let gen =
    QCheck.Gen.(
      sized
      @@ fix (fun self n ->
             if n <= 0 then map Sexp.atom gen_label
             else
               frequency
                 [
                   (2, map Sexp.int gen_symbol);
                   (2, map Sexp.atom gen_label);
                   (1, map Sexp.list (list_size (int_range 0 4) (self (n / 2))));
                 ]))
  in
  QCheck.Test.make ~name:"tree rendering = legacy renderer" ~count:500
    (QCheck.make ~print:Legacy.Render.to_string gen)
    (fun t ->
      Sexp.to_string t = Legacy.Render.to_string t && same_file (fun path -> Sexp.save path t) t)

let render_int = W.render W.int

let test_int_extremes () =
  List.iter
    (fun n -> Alcotest.(check string) (string_of_int n) (string_of_int n) (render_int n))
    [ 0; 1; -1; 9; 10; -10; 99; 100; -100; 101; min_int; max_int; min_int + 1; max_int - 1 ]

let prop_int_rendering =
  QCheck.Test.make ~name:"writer ints = string_of_int" ~count:2000 QCheck.int (fun n ->
      render_int n = string_of_int n)

(* ------------------------------------------------------------------ *)
(* Failed saves release their descriptor                               *)
(* ------------------------------------------------------------------ *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Writing to /dev/full opens fine and fails on the flush. A failed save
   must still close its file, or each one leaks a descriptor — in the
   daemon, one per Finish on a full disk. *)
let test_failed_save_closes_fd () =
  if not (Sys.file_exists "/dev/full" && Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let pipe, _ = Pipeline.run (Micro.churn ~live:8 ~ops:600 ()) in
  let whomp = Pipeline.whomp_profile pipe ~elapsed:0.0 in
  let rasg = Pipeline.rasg_profile pipe ~elapsed:0.0 in
  let leap = Pipeline.leap_profile pipe ~elapsed:0.0 in
  let fails name save =
    match save "/dev/full" with
    | () -> Alcotest.failf "%s to /dev/full succeeded" name
    | exception Sys_error _ -> ()
  in
  let before = open_fds () in
  for _ = 1 to 20 do
    fails "whomp save" (fun path -> Ormp_persist.Whomp_io.save path whomp);
    fails "rasg save" (fun path -> Ormp_persist.Rasg_io.save path rasg);
    fails "leap save" (fun path -> Ormp_persist.Leap_io.save path leap);
    fails "sexp save" (fun path -> Sexp.save path (Sexp.atom "x"))
  done;
  check_int "open descriptors after 80 failed saves" before (open_fds ())

(* ------------------------------------------------------------------ *)
(* Allocation witness                                                  *)
(* ------------------------------------------------------------------ *)

(* Minor words one save allocates, after a warm-up save to the same
   path. *)
let save_words save =
  with_tempfile (fun path ->
      save path;
      let w0 = Gc.minor_words () in
      save path;
      Gc.minor_words () -. w0)

(* Saving profiles whose grammars are over ten times larger allocates at
   most a constant number of extra minor words: nothing per symbol, rule
   or object record. *)
let test_save_allocation_free () =
  let profiles ops =
    let pipe, _ = Pipeline.run (Micro.hash_probe ~buckets:512 ~ops ()) in
    (Pipeline.whomp_profile pipe ~elapsed:0.0, Pipeline.rasg_profile pipe ~elapsed:0.0)
  in
  let small_w, small_r = profiles 200 and large_w, large_r = profiles 6000 in
  let whomp_size = Ormp_whomp.Whomp.omsg_size in
  let rasg_size (r : Ormp_whomp.Rasg.profile) = Seq_c.grammar_size r.Ormp_whomp.Rasg.grammar in
  check_bool
    (Printf.sprintf "10x the grammar (whomp %d vs %d, rasg %d vs %d symbols)" (whomp_size small_w)
       (whomp_size large_w) (rasg_size small_r) (rasg_size large_r))
    true
    (whomp_size large_w >= 10 * whomp_size small_w && rasg_size large_r >= 10 * rasg_size small_r);
  let extra save small large =
    save_words (fun path -> save path large) -. save_words (fun path -> save path small)
  in
  let whomp_extra = extra Ormp_persist.Whomp_io.save small_w large_w in
  let rasg_extra = extra Ormp_persist.Rasg_io.save small_r large_r in
  check_bool
    (Printf.sprintf "extra minor words: whomp %.0f, rasg %.0f (<= 1024)" whomp_extra rasg_extra)
    true
    (whomp_extra <= 1024.0 && rasg_extra <= 1024.0)

(* ------------------------------------------------------------------ *)
(* One reader: every loader against the tree oracle, and mutated input *)
(* ------------------------------------------------------------------ *)

module R = Ormp_util.Sexp.Reader
module Old = Load_legacy
module Leap = Ormp_leap.Leap
module Heartbeat = Ormp_telemetry.Heartbeat

(* A reader under test: a writer's output, its decoding by the reader and
   by the tree oracle, and the writer that saves a decoded value again. *)
type case =
  | Case : {
      name : string;
      text : string;
      read : R.t -> 'a;
      oracle : Sexp.t -> ('a, string) result;
      write : W.t -> 'a -> unit;
    }
      -> case

let case name ~text ~read ~oracle ~write = Case { name; text; read; oracle; write }

(* A LEAP collector over budget (summaries, discard spans) and over its
   stream cap (dropped streams), with one regular stream whose descriptor
   is still open. *)
let lossy_leap () =
  let leap = Leap.collector ~budget:2 ~max_streams:4 () in
  for t = 0 to 79 do
    let instr = t mod 5 in
    Leap.collect leap
      {
        Ormp_core.Tuple.instr;
        group = instr mod 2;
        obj = 0;
        offset = (if instr = 0 then t else t * t * 31 mod 97);
        time = t;
        is_store = instr = 3;
      }
  done;
  leap

let manifest_value =
  ( "two words",
    Some { Ormp_vm.Config.default with policy = Ormp_memsim.Allocator.Randomized 7 },
    { Session.default_options with checkpoint_every = 500; leap_budget = Some 5 } )

(* What the daemon writes: no VM config. *)
let daemon_manifest_value =
  ("linked_list", None, { Session.default_options with max_streams = 1 })

let heartbeat_value =
  {
    Heartbeat.wall_s = 1.5;
    position = 4096;
    events_per_sec = 125000.0;
    live_objects = 96;
    grammar_symbols = 512;
    leap_streams = 7;
    journal_bytes = 73000;
    snapshot_bytes = 11000;
    last_checkpoint = 4000;
    degraded = [ "grammar-rotation"; "a b" ];
  }

(* Every reader, each over a small output of its writer that takes every
   optional and repeated element it has: freed objects, a typed group
   whose type needs quoting, summaries, discard spans, dropped streams,
   open descriptors, epochs and degradations. *)
let cases =
  lazy
    (let pipe, _ = Pipeline.run (Micro.churn ~live:4 ~ops:40 ()) in
     let whomp = Pipeline.whomp_profile pipe ~elapsed:0.0 in
     let rasg = Pipeline.rasg_profile pipe ~elapsed:0.0 in
     let leap = lossy_leap () in
     let live = Leap.live leap in
     let leap_profile = Leap.finish leap ~collected:80 ~wild:3 ~elapsed:0.0 in
     let cdc = Pipeline.cdc_state pipe in
     let omc = cdc.Ormp_core.Cdc.s_omc in
     let typed = { Omc.gs_site = 9; gs_type = Some "struct node"; gs_population = 0 } in
     let snap =
       match Pipeline.grammars pipe with
       | [ (_, gi); (_, gg); (_, go); (_, gf); (_, rasg) ] ->
         {
           Snapshot.position = Pipeline.position pipe;
           checkpoint = 2;
           journal_crc = 77;
           rotations = 1;
           epochs =
             [
               {
                 Snapshot.ep_index = 1;
                 ep_dim = "instr";
                 ep_file = "epoch-1-instr";
                 ep_from = 0;
                 ep_to = 9;
                 ep_symbols = 4;
               };
             ];
           degradations = [ { Snapshot.dg_position = 5; dg_kind = "rotate"; dg_detail = "a b" } ];
           cdc = { cdc with s_omc = { omc with s_groups = omc.s_groups @ [ typed ] } };
           whomp = (gi, gg, go, gf);
           rasg;
           leap = live;
         }
       | _ -> Alcotest.fail "not five grammars"
     in
     let file write x = W.render write x ^ "\n" in
     [
       case "whomp" ~text:(file_bytes (fun p -> Ormp_persist.Whomp_io.save p whomp))
         ~read:Ormp_persist.Whomp_io.read ~oracle:Old.Whomp_profile.of_sexp
         ~write:Ormp_persist.Whomp_io.write;
       case "rasg" ~text:(file_bytes (fun p -> Ormp_persist.Rasg_io.save p rasg))
         ~read:Ormp_persist.Rasg_io.read ~oracle:Old.Rasg.of_sexp ~write:Ormp_persist.Rasg_io.write;
       case "leap" ~text:(file_bytes (fun p -> Ormp_persist.Leap_io.save p leap_profile))
         ~read:Ormp_persist.Leap_io.read ~oracle:Old.Leap_profile.of_sexp
         ~write:Ormp_persist.Leap_io.write;
       case "snapshot" ~text:(W.render Snapshot.write snap) ~read:Snapshot.read
         ~oracle:Old.Snapshot_payload.of_sexp ~write:Snapshot.write;
       case "manifest" ~text:(file Session.write_manifest manifest_value)
         ~read:Session.read_manifest ~oracle:Old.Manifest.manifest_of_sexp
         ~write:Session.write_manifest;
       case "daemon manifest" ~text:(file Session.write_manifest daemon_manifest_value)
         ~read:Session.read_manifest ~oracle:Old.Manifest.manifest_of_sexp
         ~write:Session.write_manifest;
       case "heartbeat" ~text:(W.render Heartbeat.write heartbeat_value) ~read:Heartbeat.read
         ~oracle:Old.Heartbeat_line.of_sexp ~write:Heartbeat.write;
     ])

(* The tokens of a text, as offset pairs: parentheses, quoted atoms
   (escapes included) and bare atoms, with blanks between them. *)
let tokens s =
  let n = String.length s in
  let blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let rec quoted j =
    if j >= n then n
    else if s.[j] = '\\' then quoted (j + 2)
    else if s.[j] = '"' then j + 1
    else quoted (j + 1)
  in
  let ends c = blank c || c = '(' || c = ')' in
  let rec bare j = if j >= n || ends s.[j] then j else bare (j + 1) in
  let rec go i acc =
    if i >= n then List.rev acc
    else if blank s.[i] then go (i + 1) acc
    else
      let e =
        if s.[i] = '(' || s.[i] = ')' then i + 1
        else if s.[i] = '"' then min n (quoted (i + 1))
        else bare i
      in
      go e ((i, e) :: acc)
  in
  go 0 []

let token_texts s = List.map (fun (a, e) -> String.sub s a (e - a)) (tokens s)
let splice s a e by = String.sub s 0 a ^ by ^ String.sub s e (String.length s - e)

(* Every mutation of [text]: each strict prefix; each byte with bit 0 and
   bit 5 flipped; each list dropped, doubled and renamed; each blank run
   between tokens changed, and all of them at once. *)
let mutants text =
  let n = String.length text in
  let toks = Array.of_list (tokens text) in
  let prefixes = List.init n (fun k -> String.sub text 0 k) in
  let flip i bit =
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor bit) else c) text
  in
  let flips = List.concat_map (fun i -> [ flip i 0x01; flip i 0x20 ]) (List.init n Fun.id) in
  let lists = ref [] and opens = ref [] in
  Array.iteri
    (fun k (a, _) ->
      match text.[a] with
      | '(' -> opens := k :: !opens
      | ')' -> (
        match !opens with
        | o :: rest ->
          opens := rest;
          lists := (o, k) :: !lists
        | [] -> ())
      | _ -> ())
    toks;
  let elements =
    List.concat_map
      (fun (o, k) ->
        let a = fst toks.(o) and e = snd toks.(k) in
        let renamed =
          if o + 1 < k && text.[fst toks.(o + 1)] <> '(' then
            let ha, he = toks.(o + 1) in
            [ splice text ha he (String.sub text ha (he - ha) ^ "x") ]
          else []
        in
        [ splice text a e ""; splice text e e (" " ^ String.sub text a (e - a)) ] @ renamed)
      !lists
  in
  let gaps = List.init (Array.length toks - 1) (fun k -> (snd toks.(k), fst toks.(k + 1))) in
  let respace = function " " -> "\n\t " | _ -> " " in
  let respaced (a, e) = respace (String.sub text a (e - a)) in
  let blanks =
    List.filter_map
      (fun (a, e) -> if a < e then Some (splice text a e (respaced (a, e))) else None)
      gaps
  in
  let all_blanks =
    let b = Buffer.create n and last = ref 0 in
    List.iter
      (fun (a, e) ->
        Buffer.add_string b (String.sub text !last (a - !last));
        Buffer.add_string b (if a < e then respaced (a, e) else "");
        last := e)
      gaps;
    Buffer.add_string b (String.sub text !last (n - !last));
    Buffer.contents b
  in
  prefixes @ flips @ elements @ (all_blanks :: blanks)

(* Optional and repeated elements each fixture must take. *)
let must_hold =
  [
    ("whomp", [ "(object"; "(group" ]);
    ("leap", [ "(summary"; "(dspan"; "(dropped-streams"; "(dropped-accesses" ]);
    ("snapshot", [ "(open"; "(summary"; "(last-discarded"; "(top-stride"; "(dspan"; "(epoch"; "(\"struct" ]);
  ]

let test_readers_eq_oracle () =
  List.iter
    (fun (Case c) ->
      List.iter
        (fun sub -> check_bool (c.name ^ " holds " ^ sub) true (find_sub c.text sub <> None))
        (Option.value ~default:[] (List.assoc_opt c.name must_hold));
      let oracle = Result.bind (Sexp.of_string c.text) c.oracle in
      match (R.run c.text c.read, oracle) with
      | Ok v, Ok o ->
        Alcotest.(check string) (c.name ^ " decodes as the oracle does") (W.render c.write o)
          (W.render c.write v);
        Alcotest.(check (list string)) (c.name ^ " saves back its tokens") (token_texts c.text)
          (token_texts (W.render c.write v))
      | Error e, _ -> Alcotest.failf "%s: the reader refused its writer's output: %s" c.name e
      | _, Error e -> Alcotest.failf "%s: the oracle refused it: %s" c.name e)
    (Lazy.force cases)

(* Random micro workloads at random seeds: each profile and a snapshot of
   the run decode through the reader as through the tree oracle. *)
let prop_micro_readers_eq_oracle =
  let print ((name, _), seed, _) = Printf.sprintf "%s seed %d" name seed in
  QCheck.Test.make ~name:"micro profiles and snapshots decode as the oracle does" ~count:15
    (QCheck.make ~print gen_micro)
    (fun ((_, program), seed, _) ->
      let pipe, _ = Pipeline.run ~config:{ Ormp_vm.Config.default with seed } program in
      let same write read oracle x =
        let text = W.render write x in
        match (R.run text read, Result.bind (Sexp.of_string text) oracle) with
        | Ok v, Ok o -> W.render write v = W.render write o && W.render write v = text
        | Error e, _ | _, Error e -> QCheck.Test.fail_report e
      in
      let snap =
        match Pipeline.grammars pipe with
        | [ (_, gi); (_, gg); (_, go); (_, gf); (_, rasg) ] ->
          {
            Snapshot.position = Pipeline.position pipe;
            checkpoint = 1;
            journal_crc = seed;
            rotations = 0;
            epochs = [];
            degradations = [];
            cdc = Pipeline.cdc_state pipe;
            whomp = (gi, gg, go, gf);
            rasg;
            leap = Pipeline.leap_live pipe;
          }
        | _ -> QCheck.Test.fail_report "not five grammars"
      in
      same Ormp_persist.Whomp_io.write Ormp_persist.Whomp_io.read Old.Whomp_profile.of_sexp
        (Pipeline.whomp_profile pipe ~elapsed:0.0)
      && same Ormp_persist.Rasg_io.write Ormp_persist.Rasg_io.read Old.Rasg.of_sexp
           (Pipeline.rasg_profile pipe ~elapsed:0.0)
      && same Ormp_persist.Leap_io.write Ormp_persist.Leap_io.read Old.Leap_profile.of_sexp
           (Pipeline.leap_profile pipe ~elapsed:0.0)
      && same Snapshot.write Snapshot.read Old.Snapshot_payload.of_sexp snap)

(* On every mutant the reader returns, never raises; what it takes, it
   saves back to the mutant's tokens. *)
let test_mutants_fail_closed () =
  List.iter
    (fun (Case c) ->
      let taken = ref 0 and refused = ref 0 in
      List.iter
        (fun m ->
          match R.run m c.read with
          | exception e ->
            Alcotest.failf "%s reader raised %s on %S" c.name (Printexc.to_string e) m
          | Error _ -> incr refused
          | Ok v ->
            incr taken;
            let back = W.render c.write v in
            if token_texts back <> token_texts m then
              Alcotest.failf "%s reader took %S but saves back %S" c.name m back)
        (mutants c.text);
      check_bool (Printf.sprintf "%s: %d mutants taken, %d refused" c.name !taken !refused) true
        (!taken > 0 && !refused > 0))
    (Lazy.force cases)

let elapsed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The first unexpected token is the second [(], where a name belongs;
   the third in a heartbeat line, which opens with a list of lists. *)
let test_deep_nesting () =
  let text = String.make 1_000_000 '(' in
  List.iter
    (fun (Case c) ->
      let first = if c.name = "heartbeat" then "byte 2: " else "byte 1: " in
      match elapsed (fun () -> R.run text c.read) with
      | Ok _, _ -> Alcotest.failf "%s took a megabyte of (" c.name
      | Error e, t ->
        check_bool (Printf.sprintf "%s: %S in %.3f s" c.name e t) true
          (String.starts_with ~prefix:first e && t < 0.5))
    (Lazy.force cases)

(* Cases that loaded before the reader: a field written twice, an
   unknown field, a hexadecimal count, a misspelled stream. *)
let test_noncanonical_profiles () =
  let leap = Ormp_leap.Leap.profile (Micro.array_stride ~elems:64 ~sweeps:2 ()) in
  let text = W.render Ormp_persist.Leap_io.write leap in
  let after field by =
    match find_sub text ("(" ^ field) with
    | None -> Alcotest.failf "no %s field" field
    | Some i ->
      let j = String.index_from text i ')' + 1 in
      splice text j j by
  in
  let replace field by =
    match find_sub text ("(" ^ field) with
    | None -> Alcotest.failf "no %s field" field
    | Some i -> splice text i (String.index_from text i ')') by
  in
  List.iter
    (fun (name, mutant) ->
      check_bool name true (Result.is_error (R.run mutant Ormp_persist.Leap_io.read)))
    [
      ("second (wild 5)", after "wild" " (wild 5)");
      ("unknown (zzz (((((()))))))", after "wild" " (zzz (((((()))))))");
      ( "hexadecimal collected",
        replace "collected" (Printf.sprintf "(collected 0x%X" leap.Ormp_leap.Leap.collected) );
      ("(strem", replace "stream" "(strem");
    ]

(* A listing whose every rule is two copies of the next expands to 2^n
   symbols; the count on file bounds it before anything expands. *)
let bomb_rasg levels =
  let rules =
    List.init levels (fun k -> Printf.sprintf "(rule %d R%d R%d)" k (k + 1) (k + 1))
    @ [ Printf.sprintf "(rule %d 1 2)" levels ]
  in
  Printf.sprintf "(ormp-rasg-profile (version 1) (accesses 100) (grammar (dim rasg) %s))"
    (String.concat " " rules)

let test_rule_bombs () =
  List.iter
    (fun rules ->
      match elapsed (fun () -> R.run (bomb_rasg (rules - 1)) Ormp_persist.Rasg_io.read) with
      | Ok _, _ -> Alcotest.failf "the %d-rule bomb loaded" rules
      | Error e, t ->
        check_bool (Printf.sprintf "%d rules: %S in %.3f s" rules e t) true
          (find_sub e "expands past 100" <> None && t < 0.5))
    [ 22; 40 ]

(* Minor words to read [(xs 1 2 ... n)], summing as it goes: the same
   for a hundred integers as for a hundred thousand. *)
let test_read_int_allocation_free () =
  let words n =
    let text = "(xs " ^ String.concat " " (List.init n string_of_int) ^ ")" in
    let sum r =
      R.flat r "xs";
      let acc = ref 0 in
      while R.more r do
        acc := !acc + R.int r
      done;
      R.close r;
      !acc
    in
    ignore (R.run text sum);
    let w0 = Gc.minor_words () in
    let total = R.run text sum in
    let w = Gc.minor_words () -. w0 in
    check_bool "sum" true (total = Ok (n * (n - 1) / 2));
    w
  in
  let small = words 100 and large = words 100_000 in
  check_bool (Printf.sprintf "minor words: %.0f for 100 ints, %.0f for 100k" small large) true
    (large <= small)

(* ------------------------------------------------------------------ *)
(* Readers refuse what breaks an invariant                             *)
(* ------------------------------------------------------------------ *)

(* [edit text ~nth old by]: the [nth] (from 1) occurrence of [old] in
   [text] replaced by [by]. *)
let edit ?(nth = 1) text old by =
  let rec at from k =
    match find_sub (String.sub text from (String.length text - from)) old with
    | None -> Alcotest.failf "no %S in the profile" old
    | Some i when k = 1 -> from + i
    | Some i -> at (from + i + 1) (k - 1)
  in
  let i = at 0 nth in
  splice text i (i + String.length old) by

(* The bytes of the first [(name ...)] list after [from]. *)
let list_span text ~from name =
  match find_sub (String.sub text from (String.length text - from)) ("(" ^ name ^ " ") with
  | None -> Alcotest.failf "no (%s" name
  | Some i ->
    let a = from + i in
    (a, String.index_from text a ')' + 1)

(* Each case is a profile text that breaks one invariant, and part of the
   message its reader must fail with. *)
let refused read cases =
  List.iter
    (fun (name, text, expect) ->
      match R.run text read with
      | Ok _ -> Alcotest.failf "%s: loaded" name
      | Error e ->
        check_bool (Printf.sprintf "%s: %S names %S" name e expect) true
          (find_sub e expect <> None))
    cases

let test_leap_invariants_refused () =
  let module L = Ormp_leap.Leap in
  let render = W.render Ormp_persist.Leap_io.write in
  (* [ormp leap linked_list]: three streams of one LMAD each, 2048
     accesses apiece. *)
  let regular = L.profile (List.assoc "linked_list" Micro.all) in
  let text = render regular in
  (* A stream of [p] rewritten in memory, where no reader intervenes. *)
  let with_stream p pick f =
    let k, s = List.find pick p.L.streams in
    let streams = List.map (fun (k', s') -> if k' = k then (k, f s) else (k', s')) p.L.streams in
    render { p with L.streams }
  in
  let first _ = true in
  let lossy () = L.profile (Micro.hash_probe ~buckets:512 ~ops:4096 ()) in
  let discards (_, s) = Ormp_lmad.Compressor.discarded s.L.comp > 0 in
  let c = Ormp_lmad.Compressor.create in
  refused Ormp_persist.Leap_io.read
    [
      ( "span reversed",
        edit text "(spans 0 6141)" "(spans 6141 0)",
        "span 0: t_first 6141 > t_last 0" );
      ( "two spans for one LMAD",
        edit text "(spans 0 6141)" "(spans 0 3000 3001 6141)",
        "2 time spans for 1 LMADs" );
      ( "collected",
        edit text "(collected 6144)" "(collected 9999)",
        "streams hold 6144 accesses (+0 dropped), profile collected 9999" );
      ( "comp total",
        edit text "(total 2048)" "(total 100)",
        "LMADs describe more points than the 100 captured" );
      ( "off total below",
        edit ~nth:2 text "(total 2048)" "(total 2047)",
        "LMADs describe more points than the 2047 captured" );
      (* 2^61 * 4 wraps to 0 in OCaml's 63-bit ints. *)
      ( "LMAD size past max_int",
        edit (edit text "(count 64)" "(count 2305843009213693952)") "(count 32)" "(count 4)",
        "LMADs describe more points than the 2048 captured" );
      ( "off total above",
        edit ~nth:2 text "(total 2048)" "(total 2049)",
        "point stream saw 2048 accesses, offset stream 2049" );
      ( "unclassified instruction",
        edit text "(instrs 2 3 4)" "(instrs 3 4)",
        "instruction i2 has a stream but no load/store record" );
      ( "stream twice",
        render { regular with L.streams = List.hd regular.L.streams :: regular.L.streams },
        "stream (i2, g0) twice" );
      ( "point stream dims",
        with_stream regular first (fun s -> { s with L.comp = c ~dims:3 () }),
        "point stream dims 3 <> 2" );
      ( "offset stream dims",
        with_stream regular first (fun s -> { s with L.off = c ~dims:2 () }),
        "offset stream dims 2 <> 1" );
      ( "spans overlap",
        with_stream (lossy ())
          (fun (_, s) -> Ormp_util.Vec.length s.L.spans >= 2)
          (fun s ->
            let sp = Ormp_util.Vec.get s.L.spans 1 in
            sp.L.t_first <- (Ormp_util.Vec.get s.L.spans 0).L.t_last - 1;
            s),
        "span 1 begins" );
      ( "discards without a span",
        with_stream (lossy ()) discards (fun s -> { s with L.dspan = None }),
        "accesses discarded but no discard span" );
      ( "discard span without discards",
        with_stream regular first (fun s ->
            { s with L.dspan = Some { L.t_first = 0; t_last = 1 } }),
        "discard span present but nothing was discarded" );
      ( "discard span reversed",
        with_stream (lossy ()) discards (fun s ->
            { s with L.dspan = Some { L.t_first = 9; t_last = 1 } }),
        "discard span: t_first 9 > t_last 1" );
    ];
  (* The compressor that owns the first summary, over its budget of 30
     LMADs: its fields, and its summary's box and granularity. *)
  let text = render (lossy ()) in
  let sum = Option.get (find_sub text "(summary") in
  let rec last_before name from =
    match find_sub (String.sub text (from + 1) (sum - from - 1)) ("(" ^ name ^ " ") with
    | None -> from
    | Some i -> last_before name (from + 1 + i)
  in
  let field name by =
    let a, e = list_span text ~from:(last_before name 0) name in
    splice text a e (Printf.sprintf "(%s %s)" name by)
  in
  let summary name f =
    let a, e = list_span text ~from:sum name in
    let ints = List.tl (String.split_on_char ' ' (String.sub text (a + 1) (e - a - 2))) in
    splice text a e (Printf.sprintf "(%s %s)" name (String.concat " " (f ints)))
  in
  refused Ormp_persist.Leap_io.read
    [
      ("no dimensions", field "dims" "0", "dims must be positive");
      ("no budget", field "budget" "0", "budget must be positive");
      ("over budget", field "budget" "1", "over budget");
      ("discarded past total", field "total" "0", "points discarded of 0 seen");
      ( "one-iteration level",
        (let a, e = list_span text ~from:0 "count" in
         splice text a e "(count 1)"),
        "level count of at least 2" );
      ("summary dims", summary "min" List.tl, "summary dims mismatch");
      ("summary min > max", summary "min" (List.map (fun _ -> "1000000000")), "summary min > max");
      ("negative granularity", summary "granularity" (List.map (fun _ -> "-1")),
        "negative granularity");
    ]

let test_whomp_invariants_refused () =
  let module Wh = Ormp_whomp.Whomp in
  let p = Wh.profile (Micro.churn ~live:12 ~ops:1500 ()) in
  let render p = W.render Ormp_persist.Whomp_io.write p in
  let lts = Array.of_list p.Wh.lifetimes in
  let with_lifetime i f =
    render { p with Wh.lifetimes = List.mapi (fun j l -> if j = i then f l else l) p.Wh.lifetimes }
  in
  let freed_late =
    let rec go i =
      match lts.(i) with
      | { Omc.free_time = Some _; alloc_time; _ } when alloc_time >= 2 -> i
      | _ -> go (i + 1)
    in
    go 0
  in
  (* The last object of group 0 moves to a group no table lists. *)
  let last0 =
    snd
      (Array.fold_left
         (fun (i, last) (l : Omc.lifetime) -> (i + 1, if l.Omc.group = 0 then i else last))
         (0, -1) lts)
  in
  let groups f = render { p with Wh.groups = List.mapi f p.Wh.groups } in
  refused Ormp_persist.Whomp_io.read
    [
      ( "dimension order",
        render { p with Wh.dims = List.rev p.Wh.dims },
        "dimension grammars [offset;object;group;instr]" );
      ( "collected",
        edit (render p)
          (Printf.sprintf "(collected %d)" p.Wh.collected)
          (Printf.sprintf "(collected %d)" (p.Wh.collected + 1)),
        "grammar instr: expands to" );
      ( "serial gap",
        with_lifetime 0 (fun l -> { l with Omc.serial = 1 }),
        "serial 1 out of order, expected 0" );
      ( "allocation order",
        with_lifetime 1 (fun l -> { l with Omc.alloc_time = lts.(0).Omc.alloc_time - 1 }),
        "after a later allocation" );
      ( "freed before allocation",
        with_lifetime freed_late (fun l -> { l with Omc.free_time = Some (l.Omc.alloc_time - 1) }),
        "before allocation" );
      ( "free site, no free time",
        with_lifetime 0 (fun l -> { l with Omc.free_time = None; free_site = Some 3 }),
        "has a free site but no free time" );
      ( "overlap",
        with_lifetime 1 (fun l -> { l with Omc.base = lts.(0).Omc.base }),
        "overlaps another live object" );
      ( "group ids",
        groups (fun i g -> if i = 0 then { g with Omc.gid = 5 } else g),
        "group ids not dense" );
      ( "population",
        groups (fun i g -> if i = 0 then { g with Omc.population = g.Omc.population + 1 } else g),
        "population" );
      ( "unknown group",
        render
          {
            p with
            Wh.groups =
              List.mapi
                (fun i g -> if i = 0 then { g with Omc.population = g.Omc.population - 1 } else g)
                p.Wh.groups;
            lifetimes =
              List.mapi
                (fun j l ->
                  if j = last0 then { l with Omc.group = List.length p.Wh.groups; serial = 0 }
                  else l)
                p.Wh.lifetimes;
          },
        "references unknown group" );
    ]

let test_manifest_heartbeat_eq_legacy () =
  let workload, config, options = manifest_value in
  Alcotest.(check string) "manifest"
    (Legacy.Render.to_string
       (Legacy.manifest_to_sexp ~workload ~config:(Option.get config) ~options))
    (W.render Session.write_manifest manifest_value);
  Alcotest.(check string) "heartbeat"
    (Legacy.Render.to_string (Legacy.heartbeat_to_sexp heartbeat_value))
    (W.render Heartbeat.write heartbeat_value)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_persist"
    [
      ( "sexp",
        [
          tc "atoms" test_sexp_atoms;
          tc "lists" test_sexp_lists;
          tc "parse errors" test_sexp_parse_errors;
          tc "comments and whitespace" test_sexp_comments_and_ws;
          tc "accessors" test_sexp_accessors;
          tc "file io" test_sexp_file_io;
          QCheck_alcotest.to_alcotest prop_sexp_roundtrip;
        ] );
      ( "leap",
        [
          tc "roundtrip (regular)" test_leap_roundtrip_regular;
          tc "roundtrip (lossy)" test_leap_roundtrip_lossy;
          tc "load errors" test_leap_load_errors;
          tc "corruption paths" test_leap_corruption;
        ] );
      ( "whomp",
        [
          tc "roundtrip" test_whomp_roundtrip;
          tc "expand after load" test_whomp_expand_after_load;
          tc "corruption paths" test_whomp_corruption;
          tc "cyclic grammar" test_whomp_cyclic_grammar;
          tc "non-canonical grammar" test_whomp_noncanonical_grammar;
        ] );
      ( "writer",
        [
          tc "grammar edge cases = legacy" test_grammar_edge_cases;
          QCheck_alcotest.to_alcotest prop_grammar_eq_legacy;
          QCheck_alcotest.to_alcotest prop_labels_eq_legacy;
          QCheck_alcotest.to_alcotest prop_micro_eq_legacy;
          QCheck_alcotest.to_alcotest prop_tree_eq_legacy;
          tc "int extremes" test_int_extremes;
          QCheck_alcotest.to_alcotest prop_int_rendering;
          tc "failed save closes its file" test_failed_save_closes_fd;
          tc "save is allocation-free per symbol" test_save_allocation_free;
          tc "manifest and heartbeat = legacy" test_manifest_heartbeat_eq_legacy;
        ] );
      ( "reader",
        [
          tc "every reader decodes as the tree oracle" test_readers_eq_oracle;
          QCheck_alcotest.to_alcotest prop_micro_readers_eq_oracle;
          tc "mutated inputs fail closed" test_mutants_fail_closed;
          tc "a megabyte of ( fails at its first token" test_deep_nesting;
          tc "doubled, unknown, hex and misspelled fields" test_noncanonical_profiles;
          tc "rule bombs fail before expanding" test_rule_bombs;
          tc "LEAP profiles that break an invariant" test_leap_invariants_refused;
          tc "WHOMP profiles that break an invariant" test_whomp_invariants_refused;
          tc "reading an integer allocates nothing" test_read_int_allocation_free;
        ] );
    ]
