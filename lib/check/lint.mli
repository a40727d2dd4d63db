(** Source-level lint for the repo's concurrency and output conventions.

    Nine rules, enforced over [.ml] files (comments and strings, quoted
    strings [{id|...|id}] included, are stripped before matching, inside
    comments too, as the OCaml lexer reads them):

    - [atomic] (error) — no raw [Atomic.] use outside the functorized
      transport seam ({!Ormp_trace.Atomics_intf}); everything else must
      go through the seam so the model checker can trace it.
    - [hashtbl-order] (error) — no [Hashtbl.iter]/[Hashtbl.fold] under
      [persist/]: iteration order depends on insertion history and would
      make persisted output nondeterministic. Waive at sort sites.
    - [hot-path-alloc] (warning) — no allocation-prone constructs
      ([sprintf], [List.map], …) in files tagged [lint:hot-path].
    - [blocking-io] (error) — no unbounded blocking calls ([Unix.read],
      [Unix.sleep*], [input_line], [Unix.accept]/[connect]/[select]/
      [recv]) outside the server's deadline-aware I/O seam (any path
      ending in [server/net_io.ml] is exempt): a call that can wait
      forever turns one slow peer into a wedged daemon. Waive at sites
      that provably touch only regular files or are startup-only.
    - [worker-spawn] (error) — [Worker.spawn] only in the one worker
      pool ({!Ormp_trace.Pool}, any path ending in [trace/pool.ml]): every
      profiler stack runs through {!Ormp_session.Pipeline} on that pool,
      so a second hand-wired pool is a regression, not a waiver.
    - [journal-owner] (error) — {!Ormp_session.Journal}'s [create],
      [recover] and [append] only in {!Ormp_session.Session} (a path ending
      in [session/session.ml]): one owner of durability, one recovery path.
    - [boxed-driver] (error) — [Runner.run], matched as a whole
      identifier, only under [vm/]: every driver feeds
      {!Ormp_trace.Batch} lanes through [Runner.run_batched]. Waive only
      where a caller needs the boxed event array itself.
    - [bare-eprintf] (error) — no direct stderr writes ([eprintf],
      [prerr_*], [output_string stderr]) bypassing
      {!Ormp_telemetry.Log}.
    - [orphan-module] (error) — a [lib/<dir>/<m>.ml] that no other [lib]
      or [bin] source names, reported on its line 1. Inside its own
      library the name [M] counts; from elsewhere only through its
      library, [Ormp_<dir>.M] or [M] in a file that names [Ormp_<dir>],
      so callers of a same-named module in another library do not count.
      A file that binds its own [M] ([module M = ...]) names the
      library's only as [Ormp_<dir>.M]. A file's callers are every [.ml]
      under its lib root and the sibling [bin/]. The waivers in [lib]
      are [Experiments], which [bench/main.exe] runs, and
      [Ormp_server.Pipeline], which [e2e/wiring.ml] names.

    Waivers are comments carrying their own justification:
    [lint:allow <rule>] (same or preceding line),
    [lint:allow-file <rule>] (whole file), [lint:hot-path] (tag). *)

type finding = {
  rule : string;
  severity : Finding.severity;
  file : string;
  line : int;  (* 1-based *)
  text : string;  (** the offending source line, trimmed *)
  message : string;
}

type report = { roots : string list; files_scanned : int; findings : finding list }

val scan_file : string -> finding list
(** Findings for one file, in line order. A file under a [lib/<dir>/]
    is also checked against its lib root's and [bin/]'s callers. *)

val scan : string list -> report
(** Walk the given roots (skipping [_build] and dot-entries), scan every
    [.ml], and return findings sorted severity-major, then file, then
    line. *)

val errors : report -> int
val warnings : report -> int
val notes : report -> int

val clean : report -> bool
(** No errors and no warnings (mirrors {!Report.clean}). *)

val render : Format.formatter -> report -> unit

val to_sexp : report -> Ormp_util.Sexp.t
(** Mirrors the [ormp-check-report] shape: subject, severity counts, then
    the findings. *)
