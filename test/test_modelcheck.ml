(* The model checker and the lint engine, unit-tested.

   The modelcheck side runs the fast litmus cases inline (the full suite,
   including the slower exhaustive cases, runs under `dune build
   @modelcheck`) plus two engine sanity checks that do not involve the
   transport at all: the checker must find a classic lost update, and
   must prove the atomic version of the same program.

   The lint side pins down exact finding counts on the seeded fixtures in
   lint-fixtures/ — including the lines that a waiver must silence.
   Repo-wide cleanliness is enforced by `dune build @lint`, which runs
   from the source tree. *)

module Mc = Ormp_modelcheck.Mc
module Litmus = Ormp_modelcheck.Litmus
module Lint = Ormp_check.Lint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Engine sanity                                                       *)
(* ------------------------------------------------------------------ *)

let test_mc_finds_lost_update () =
  (* Two threads do a non-atomic read-modify-write each; some schedule
     loses one increment. The checker must find it — and the trace must
     replay as a printable schedule. *)
  let stats =
    Mc.check (fun () ->
        let c = Mc.Sched.Atomic.make ~name:"c" 0 in
        let bump () =
          let v = Mc.Sched.Atomic.get c in
          Mc.Sched.Atomic.set c (v + 1)
        in
        let h1 = Mc.Sched.spawn bump in
        let h2 = Mc.Sched.spawn bump in
        Mc.Sched.join h1;
        Mc.Sched.join h2;
        Mc.check_that (Mc.Sched.Atomic.get c = 2) "no lost update")
  in
  check_bool "violation found" true (stats.Mc.violation <> None);
  check_bool "trace non-empty" true (stats.Mc.trace <> [])

let test_mc_proves_atomic_counter () =
  (* Same program with an atomic increment: every schedule sums to 2,
     and the reduced space must be explored to completion. *)
  let stats =
    Mc.check (fun () ->
        let c = Mc.Sched.Atomic.make ~name:"c" 0 in
        let h1 = Mc.Sched.spawn (fun () -> Mc.Sched.Atomic.incr c) in
        let h2 = Mc.Sched.spawn (fun () -> Mc.Sched.Atomic.incr c) in
        Mc.Sched.join h1;
        Mc.Sched.join h2;
        Mc.check_that (Mc.Sched.Atomic.get c = 2) "atomic increments commute")
  in
  check_bool "no violation" true (stats.Mc.violation = None);
  check_bool "exhausted the space" false stats.Mc.budget_exhausted;
  check_bool "explored something" true (stats.Mc.interleavings >= 1)

(* ------------------------------------------------------------------ *)
(* Litmus cases                                                        *)
(* ------------------------------------------------------------------ *)

let run name =
  match Litmus.find name with
  | Some c -> Litmus.run_case c
  | None -> Alcotest.failf "no such litmus: %s" name

let test_litmus_clean name () =
  let r = run name in
  check_bool (name ^ " ok") true r.Litmus.ok;
  check_bool (name ^ " no violation") true (r.Litmus.stats.Mc.violation = None)

let test_litmus_racy_consumer () =
  (* The seeded pre-PR-5 shutdown race: the checker must rediscover the
     lost message and produce a minimal replayable schedule. *)
  let r = run "worker_stop_no_drain_racy" in
  check_bool "ok (violation expected)" true r.Litmus.ok;
  check_bool "violation found" true (r.Litmus.stats.Mc.violation <> None);
  check_bool "schedule printed" true (List.length r.Litmus.stats.Mc.trace > 5)

let test_litmus_budget_cap () =
  (* An external cap below the case's own budget marks an exhaustive case
     not-ok: an exhausted budget proves nothing. *)
  let c =
    match Litmus.find "spsc_fifo_cap1_n2" with
    | Some c -> c
    | None -> Alcotest.fail "no such litmus"
  in
  let r = Litmus.run_case ~max_interleavings:3 c in
  check_bool "budget exhausted" true r.Litmus.stats.Mc.budget_exhausted;
  check_bool "not ok under cap" false r.Litmus.ok

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

(* dune runtest runs from _build/default/test; a bare `dune exec` runs
   from the repo root. Find the fixtures either way. *)
let fixtures =
  if Sys.file_exists "lint-fixtures" then "lint-fixtures" else "test/lint-fixtures"

let fixture name = Filename.concat fixtures name
let count_rule rule fs = List.length (List.filter (fun f -> f.Lint.rule = rule) fs)
let lines_of rule fs = List.filter_map (fun f -> if f.Lint.rule = rule then Some f.Lint.line else None) fs

let test_lint_atomic_fixture () =
  let fs = Lint.scan_file (fixture "bad_atomic.ml") in
  check_int "atomic errors" 2 (count_rule "atomic" fs);
  check_int "bare-eprintf errors" 2 (count_rule "bare-eprintf" fs);
  check_int "hot-path-alloc warnings" 2 (count_rule "hot-path-alloc" fs);
  check_int "total findings" 6 (List.length fs);
  (* line 16 is the waived Atomic.make; line 10's loop comment and line
     18's string literal mention Atomic.get and must not count *)
  check_bool "waived line absent" false (List.mem 16 (lines_of "atomic" fs));
  Alcotest.(check (list int)) "atomic finding lines" [ 7; 10 ] (lines_of "atomic" fs)

let test_lint_hashtbl_fixture () =
  let fs = Lint.scan_file (fixture "persist/bad_out.ml") in
  check_int "hashtbl-order errors" 2 (count_rule "hashtbl-order" fs);
  check_int "total findings" 2 (List.length fs);
  check_bool "waived fold absent" false (List.mem 14 (lines_of "hashtbl-order" fs))

let test_lint_hashtbl_rule_scoped_to_persist () =
  (* The same Hashtbl.fold outside a persist/ directory is fine: the rule
     targets output paths, not the data structure. *)
  let fs = Lint.scan_file (fixture "bad_atomic.ml") in
  check_int "no hashtbl findings outside persist" 0 (count_rule "hashtbl-order" fs)

let test_lint_blocking_fixture () =
  let fs = Lint.scan_file (fixture "bad_blocking.ml") in
  check_int "blocking-io errors" 3 (count_rule "blocking-io" fs);
  check_int "total findings" 3 (List.length fs);
  Alcotest.(check (list int)) "blocking-io finding lines" [ 6; 8; 10 ]
    (lines_of "blocking-io" fs);
  check_bool "waived line absent" false (List.mem 13 (lines_of "blocking-io" fs))

let test_lint_blocking_seam_exempt () =
  (* The same primitives inside a server/net_io.ml path are the seam
     itself — exempt by path, with no waiver comments needed. *)
  let fs = Lint.scan_file (fixture "server/net_io.ml") in
  check_int "seam findings" 0 (List.length fs)

let test_lint_worker_spawn_fixture () =
  let fs = Lint.scan_file (fixture "bad_spawn.ml") in
  check_int "worker-spawn errors" 1 (count_rule "worker-spawn" fs);
  check_int "total findings" 1 (List.length fs);
  Alcotest.(check (list int)) "worker-spawn finding lines" [ 5 ] (lines_of "worker-spawn" fs)

let test_lint_journal_owner_fixture () =
  let fs = Lint.scan_file (fixture "bad_journal.ml") in
  check_int "journal-owner errors" 2 (count_rule "journal-owner" fs);
  check_int "total findings" 2 (List.length fs);
  (* Journal.flush is not an owner operation; the comment and the string
     on lines 12-13 must not count *)
  Alcotest.(check (list int)) "journal-owner finding lines" [ 5; 8 ]
    (lines_of "journal-owner" fs)

let test_lint_boxed_driver_fixture () =
  let fs = Lint.scan_file (fixture "bad_driver.ml") in
  check_int "boxed-driver errors" 2 (count_rule "boxed-driver" fs);
  check_int "total findings" 2 (List.length fs);
  (* run_batched and run_bare are other identifiers; the waived call on
     line 15 and the comment and string after it must not count *)
  Alcotest.(check (list int)) "boxed-driver finding lines" [ 4; 7 ] (lines_of "boxed-driver" fs)

(* A quoted string is a string: a double quote inside one, or inside a
   char literal in a comment, opens nothing, so the calls after them are
   still seen (bad_quoted.ml), and a call spelled inside one is not code
   (quoted_label.ml). *)
let test_lint_quoted_strings () =
  let fs = Lint.scan_file (fixture "bad_quoted.ml") in
  check_int "total findings" 2 (List.length fs);
  Alcotest.(check (list int)) "boxed-driver finding lines" [ 6; 13 ] (lines_of "boxed-driver" fs);
  check_int "quoted label findings" 0 (List.length (Lint.scan_file (fixture "quoted_label.ml")))

(* Three modules are named by nothing: alpha's Pool, though bin/ names
   Ormp_beta.Pool; a Ghost that bin/ spells only in a comment and in
   strings; and beta's Codec, whose only mention in its library is a
   file's own [module Codec = ...] alias of another module. A module
   named inside its own library and a waived one do not count. A single
   file sees its lib root's callers too. *)
let test_lint_orphan_fixture () =
  let r = Lint.scan [ fixture "orphan" ] in
  Alcotest.(check (list (pair string int)))
    "orphan-module findings"
    [
      (fixture "orphan/lib/alpha/pool.ml", 1);
      (fixture "orphan/lib/beta/codec.ml", 1);
      (fixture "orphan/lib/beta/ghost.ml", 1);
    ]
    (List.map (fun f -> (f.Lint.file, f.Lint.line)) r.Lint.findings);
  check_int "alpha's pool alone" 1
    (count_rule "orphan-module" (Lint.scan_file (fixture "orphan/lib/alpha/pool.ml")));
  check_int "beta's pool alone" 0 (List.length (Lint.scan_file (fixture "orphan/lib/beta/pool.ml")))

let test_lint_scan_fixtures () =
  let r = Lint.scan [ fixtures ] in
  check_int "files" 19 r.Lint.files_scanned;
  check_int "errors" 19 (Lint.errors r);
  check_int "warnings" 2 (Lint.warnings r);
  check_int "notes" 0 (Lint.notes r);
  check_bool "not clean" false (Lint.clean r);
  (* severity-ranked: all 19 errors sort before the 2 warnings *)
  let sevs = List.map (fun f -> f.Lint.severity) r.Lint.findings in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      Ormp_check.Finding.severity_rank a <= Ormp_check.Finding.severity_rank b && sorted rest
    | _ -> true
  in
  check_bool "severity-ranked" true (sorted sevs)

let test_lint_sexp_shape () =
  let r = Lint.scan [ fixtures ] in
  let s = Ormp_util.Sexp.to_string (Lint.to_sexp r) in
  check_bool "tagged" true (String.length s > 0 && String.sub s 0 17 = "(ormp-lint-report");
  check_bool "mentions rule" true
    (let rec has i =
       i + 6 <= String.length s && (String.sub s i 6 = "atomic" || has (i + 1))
     in
     has 0)

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_modelcheck"
    [
      ( "engine",
        [
          tc "finds lost update" test_mc_finds_lost_update;
          tc "proves atomic counter" test_mc_proves_atomic_counter;
        ] );
      ( "litmus",
        [
          tc "spsc fifo cap1" (test_litmus_clean "spsc_fifo_cap1_n2");
          tc "spsc length bounds" (test_litmus_clean "spsc_length_bounds");
          tc "worker stop-no-drain cap1" (test_litmus_clean "worker_stop_no_drain_cap1_n2");
          tc "worker failure containment" (test_litmus_clean "worker_failure_containment");
          tc "racy consumer race rediscovered" test_litmus_racy_consumer;
          tc "external budget cap" test_litmus_budget_cap;
        ] );
      ( "lint",
        [
          tc "atomic fixture counts" test_lint_atomic_fixture;
          tc "hashtbl fixture counts" test_lint_hashtbl_fixture;
          tc "hashtbl rule scoped to persist" test_lint_hashtbl_rule_scoped_to_persist;
          tc "blocking fixture counts" test_lint_blocking_fixture;
          tc "blocking rule exempts the net_io seam" test_lint_blocking_seam_exempt;
          tc "worker-spawn fixture counts" test_lint_worker_spawn_fixture;
          tc "journal-owner fixture counts" test_lint_journal_owner_fixture;
          tc "boxed-driver fixture counts" test_lint_boxed_driver_fixture;
          tc "quoted strings are strings" test_lint_quoted_strings;
          tc "orphan-module fixture" test_lint_orphan_fixture;
          tc "scan totals and ranking" test_lint_scan_fixtures;
          tc "sexp shape" test_lint_sexp_shape;
        ] );
    ]
