(* Source-level lint for the repo's own concurrency and output-path
   conventions. Line-based: comments and string literals are stripped
   with a small cross-line state machine (so prose mentioning an atomic
   API, or this module's own pattern tables, never trigger), then each
   rule looks for literal tokens at identifier boundaries.

   Waivers are source comments, so the justification lives next to the
   code it covers — see the mli for the exact marker syntax (spelling the
   hot-path tag out here would tag this very file).

   Findings reuse {!Finding.severity} and the report mirrors the
   [ormp-check-report] sexp shape from {!Report}. *)

type finding = {
  rule : string;
  severity : Finding.severity;
  file : string;
  line : int;
  text : string;  (* the offending source line, trimmed *)
  message : string;
}

type report = { roots : string list; files_scanned : int; findings : finding list }

(* --- rule table -------------------------------------------------------- *)

type rule = {
  r_name : string;
  r_severity : Finding.severity;
  r_doc : string;
  r_applies : string -> bool;  (* on the /-normalized relative path *)
  r_needs_tag : bool;  (* only files carrying the hot-path tag *)
  r_patterns : string list;
  r_message : string;
}

let in_dir d path = List.mem d (String.split_on_char '/' path)

let rules =
  [
    {
      r_name = "atomic";
      r_severity = Finding.Error;
      r_doc = "no raw Atomic use outside the functorized transport seam";
      r_applies = (fun _ -> true);
      r_needs_tag = false;
      r_patterns = [ "Atomic." ];
      r_message =
        "raw Atomic use outside the transport seam — go through the \
         Atomics_intf functor seam (or waive with a justification)";
    };
    {
      r_name = "hashtbl-order";
      r_severity = Finding.Error;
      r_doc = "no Hashtbl.iter/fold on output paths (iteration order is nondeterministic)";
      r_applies = in_dir "persist";
      r_needs_tag = false;
      r_patterns = [ "Hashtbl.iter"; "Hashtbl.fold" ];
      r_message =
        "Hashtbl iteration order depends on insertion history; persisted \
         output must sort (waive at the sort site)";
    };
    {
      r_name = "hot-path-alloc";
      r_severity = Finding.Warning;
      r_doc = "no allocation-prone constructs in lint:hot-path files";
      r_applies = (fun _ -> true);
      r_needs_tag = true;
      r_patterns =
        [
          "Printf.sprintf";
          "Format.sprintf";
          "Format.asprintf";
          "String.concat";
          "List.map";
          "List.filter";
          "List.concat";
          "List.append";
          "Array.to_list";
          "Array.of_list";
        ];
      r_message = "allocation-prone construct in a hot-path-tagged file";
    };
    {
      r_name = "blocking-io";
      r_severity = Finding.Error;
      r_doc = "no unbounded blocking calls outside the server's deadline-aware I/O seam";
      r_applies = (fun p -> not (String.ends_with ~suffix:"server/net_io.ml" p));
      r_needs_tag = false;
      r_patterns =
        [
          "Unix.read";
          "Unix.sleep";
          "input_line";
          "Unix.accept";
          "Unix.connect";
          "Unix.select";
          "Unix.recv";
        ];
      r_message =
        "unbounded blocking call — go through the deadline-aware Net_io seam \
         (or waive with a justification)";
    };
    {
      r_name = "worker-spawn";
      r_severity = Finding.Error;
      r_doc = "Worker.spawn only in the one worker pool (trace/pool.ml)";
      r_applies = (fun p -> not (String.ends_with ~suffix:"trace/pool.ml" p));
      r_needs_tag = false;
      r_patterns = [ "Worker.spawn" ];
      r_message =
        "worker spawned outside Ormp_trace.Pool — drive compression through \
         Ormp_session.Pipeline on a Pool instead of wiring another pool";
    };
    {
      r_name = "journal-owner";
      r_severity = Finding.Error;
      r_doc = "journal create/recover/append only in the session (session/session.ml)";
      r_applies = (fun p -> not (String.ends_with ~suffix:"session/session.ml" p));
      r_needs_tag = false;
      (* Built from parts, so a search of lib/ for the calls finds only their owner. *)
      r_patterns = List.map (( ^ ) "Journal.") [ "create"; "recover"; "append" ];
      r_message =
        "journal written or recovered outside Ormp_session.Session — drive the \
         session through Session.start/restore/append instead of a second \
         recovery path";
    };
    {
      r_name = "boxed-driver";
      r_severity = Finding.Error;
      r_doc = "Runner.run (the boxed, per-event driver) only in the VM (lib/vm)";
      r_applies = (fun p -> not (in_dir "vm" p));
      r_needs_tag = false;
      r_patterns = [ "Runner.run\\b" ];
      r_message = "boxed per-event VM driver — feed Batch lanes through Runner.run_batched";
    };
    {
      r_name = "bare-eprintf";
      r_severity = Finding.Error;
      r_doc = "no direct stderr writes bypassing the telemetry logger";
      r_applies = (fun _ -> true);
      r_needs_tag = false;
      r_patterns = [ "eprintf"; "prerr_"; "output_string stderr" ];
      r_message = "direct stderr write — report through Ormp_telemetry.Log instead";
    };
  ]

(* --- comment/string stripping ------------------------------------------ *)

(* State carried across lines: comment nesting depth, inside-a-string,
   and whether that string started inside a comment. Each line splits
   into a code view (rules match here — string contents are blanked, so a
   pattern table never matches itself) and a comment view (waiver markers
   are comment syntax, so they are recognized only here). Stripped
   characters become spaces so column positions survive. Char literals
   containing quote characters ('"', '\'') are skipped by a narrow
   lookahead — enough for real OCaml source. *)
type strip_state = {
  mutable depth : int;
  mutable in_string : bool;
  mutable str_in_comment : bool;
}

let strip_line st line =
  let n = String.length line in
  let code = Bytes.make n ' ' in
  let com = Bytes.make n ' ' in
  let i = ref 0 in
  while !i < n do
    let c = line.[!i] in
    if st.in_string then begin
      if st.str_in_comment then Bytes.set com !i c;
      if c = '\\' then begin
        if st.str_in_comment && !i + 1 < n then Bytes.set com (!i + 1) line.[!i + 1];
        incr i (* skip the escaped char *)
      end
      else if c = '"' then st.in_string <- false
    end
    else if st.depth > 0 then begin
      Bytes.set com !i c;
      if c = '(' && !i + 1 < n && line.[!i + 1] = '*' then begin
        st.depth <- st.depth + 1;
        Bytes.set com (!i + 1) '*';
        incr i
      end
      else if c = '*' && !i + 1 < n && line.[!i + 1] = ')' then begin
        st.depth <- st.depth - 1;
        Bytes.set com (!i + 1) ')';
        incr i
      end
      else if c = '"' then begin
        st.in_string <- true;
        st.str_in_comment <- true
      end
    end
    else if c = '(' && !i + 1 < n && line.[!i + 1] = '*' then begin
      st.depth <- 1;
      incr i
    end
    else if c = '"' then begin
      st.in_string <- true;
      st.str_in_comment <- false
    end
    else if c = '\'' && !i + 2 < n && line.[!i + 2] = '\'' && line.[!i + 1] <> '\\' then begin
      (* char literal, e.g. '"' *)
      Bytes.set code !i c;
      i := !i + 2
    end
    else if c = '\'' && !i + 3 < n && line.[!i + 1] = '\\' && line.[!i + 3] = '\'' then begin
      (* escaped char literal, e.g. '\"' *)
      Bytes.set code !i c;
      i := !i + 3
    end
    else Bytes.set code !i c;
    incr i
  done;
  (Bytes.to_string code, Bytes.to_string com)

(* --- token matching ---------------------------------------------------- *)

let ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '\''

(* [needle] occurs at an identifier boundary: the preceding character is
   not part of an identifier. A '.' prefix is allowed on purpose —
   [Stdlib.Atomic.get] and [Format.eprintf] are still the raw thing. A
   needle ending in [\b] must end at one too: it is a whole identifier. *)
let has_token hay needle =
  let whole = String.ends_with ~suffix:"\\b" needle in
  let needle = if whole then String.sub needle 0 (String.length needle - 2) else needle in
  let nh = String.length hay and nn = String.length needle in
  let boundary j = j < 0 || j >= nh || not (ident_char hay.[j]) in
  let rec at i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle && boundary (i - 1) && ((not whole) || boundary (i + nn))
    then true
    else at (i + 1)
  in
  nn > 0 && at 0

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i =
    if i + nn > nh then false else if String.sub hay i nn = needle then true else at (i + 1)
  in
  nn > 0 && at 0

let allow_marker rule = "lint:allow " ^ rule
let allow_file_marker rule = "lint:allow-file " ^ rule
(* Concatenated so this file's own source never carries the live tag. *)
let hot_path_marker = "lint:" ^ "hot-path"

(* --- scanning ---------------------------------------------------------- *)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        (* lint:allow blocking-io — reads a regular file the walk just
           listed; no socket or pipe can reach here *)
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let normalize path = String.concat "/" (String.split_on_char '\\' path)

let scan_file path =
  let path = normalize path in
  let raw = read_lines path in
  let st = { depth = 0; in_string = false; str_in_comment = false } in
  let views = List.map (strip_line st) raw in
  let stripped = List.map fst views in
  let comments = Array.of_list (List.map snd views) in
  let raw_arr = Array.of_list raw in
  let hot = Array.exists (fun l -> contains l hot_path_marker) comments in
  let file_waived r =
    Array.exists (fun l -> contains l (allow_file_marker r.r_name)) comments
  in
  let line_waived r i =
    (* same line or the line above — where the justification comment sits *)
    contains comments.(i) (allow_marker r.r_name)
    || (i > 0 && contains comments.(i - 1) (allow_marker r.r_name))
  in
  let active =
    List.filter
      (fun r -> r.r_applies path && ((not r.r_needs_tag) || hot) && not (file_waived r))
      rules
  in
  let findings = ref [] in
  List.iteri
    (fun i line ->
      List.iter
        (fun r ->
          if List.exists (has_token line) r.r_patterns && not (line_waived r i) then
            findings :=
              {
                rule = r.r_name;
                severity = r.r_severity;
                file = path;
                line = i + 1;
                text = String.trim raw_arr.(i);
                message = r.r_message;
              }
              :: !findings)
        active)
    stripped;
  List.rev !findings

let rec walk path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "" || entry.[0] = '.' || entry = "_build" then acc
        else walk (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort compare entries;
       entries)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let scan roots =
  let files = List.rev (List.fold_left (fun acc root -> walk root acc) [] roots) in
  let findings = List.concat_map scan_file files in
  let findings =
    List.stable_sort
      (fun a b ->
        let c = compare (Finding.severity_rank a.severity) (Finding.severity_rank b.severity) in
        if c <> 0 then c
        else
          let c = compare a.file b.file in
          if c <> 0 then c else compare a.line b.line)
      findings
  in
  { roots; files_scanned = List.length files; findings }

(* --- reporting --------------------------------------------------------- *)

let count sev t = List.length (List.filter (fun f -> f.severity = sev) t.findings)
let errors t = count Finding.Error t
let warnings t = count Finding.Warning t
let notes t = count Finding.Note t
let clean t = errors t = 0 && warnings t = 0

let render fmt t =
  Format.fprintf fmt "ormp-lint: %s — %d error(s), %d warning(s), %d note(s) in %d file(s)@."
    (String.concat " " t.roots) (errors t) (warnings t) (notes t) t.files_scanned;
  List.iter
    (fun f ->
      Format.fprintf fmt "  %s:%d: %s [%s] %s@." f.file f.line
        (Finding.severity_name f.severity)
        f.rule f.message;
      Format.fprintf fmt "      %s@." f.text)
    t.findings

let finding_to_sexp f =
  let module S = Ormp_util.Sexp in
  S.field "finding"
    [
      S.field "rule" [ S.atom f.rule ];
      S.field "severity" [ S.atom (Finding.severity_name f.severity) ];
      S.field "file" [ S.atom f.file ];
      S.field "line" [ S.int f.line ];
      S.field "message" [ S.atom f.message ];
      S.field "text" [ S.atom f.text ];
    ]

let to_sexp t =
  let module S = Ormp_util.Sexp in
  S.field "ormp-lint-report"
    ([
       S.field "subject" [ S.atom (String.concat " " t.roots) ];
       S.field "errors" [ S.int (errors t) ];
       S.field "warnings" [ S.int (warnings t) ];
       S.field "notes" [ S.int (notes t) ];
       S.field "files" [ S.int t.files_scanned ];
     ]
    @ List.map finding_to_sexp t.findings)
