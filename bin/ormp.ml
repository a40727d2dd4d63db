(* ormp — command-line front end to the object-relative memory profilers.

   Subcommands:
     list          enumerate available workloads
     trace         run a workload and dump its probe events (raw or
                   object-relative)
     whomp         collect a WHOMP (OMSG) profile, compare against RASG
     leap          collect a LEAP profile; optionally run the dependence
                   and stride post-processors
     check         sanitize a workload run (ORMP-San) or verify a saved
                   profile's structural invariants
     compare       per-pair dependence table: lossless vs LEAP vs Connors
     record        write a raw probe-event trace to a file
     replay        stream a recorded trace through any profiler
     post          run the LEAP post-processors on a saved profile
     analyze       hot data streams, object clustering, phase detection
     session       crash-safe sessions: run / resume / status, and the
                   supervised suite runner
     serve         long-running multi-tenant profiling daemon on a Unix
                   socket, with crash-recoverable sessions and shedding
     client        stream a workload to a serve daemon (with retry,
                   resume, fault injection and a latency report)

   Exit codes are centralized in {!Exit_codes}: 0 ok, 1 findings or
   runtime failure, 2 usage error, 9 killed by an injected fault (the
   session remains resumable). *)

open Cmdliner
module Registry = Ormp_workloads.Registry
module Telemetry = Ormp_telemetry.Telemetry
module Pipeline = Ormp_session.Pipeline

(* --- telemetry and logging flags (shared by the profiling commands) --- *)

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"DIR"
        ~doc:
          "Switch on the self-profiling telemetry layer and write its reports — \
           the metrics registry as metrics.json and a Chrome trace_event trace.json — \
           to DIR after the run. Inspect with $(b,ormp stats) $(i,DIR).")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet"; "q" ]
        ~doc:
          "Suppress library diagnostics on stderr (log level quiet; the ORMP_LOG \
           environment variable sets the default level).")

let apply_quiet quiet =
  if quiet then Ormp_telemetry.Log.set_level Ormp_telemetry.Log.Quiet

(* Runs [f] with telemetry enabled when --telemetry DIR was given: the
   whole profiled run becomes one top-level span, and the reports are
   written to DIR even when [f] escapes with an exception (an injected
   session crash still leaves inspectable telemetry behind). *)
let with_telemetry telemetry ~name f =
  match telemetry with
  | None -> f ()
  | Some dir ->
    Telemetry.enable ();
    Fun.protect
      ~finally:(fun () ->
        Telemetry.write_reports ~dir;
        Telemetry.disable ())
      (fun () -> Telemetry.span ~name f)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let find_program name =
  match Ormp_session.Session.find_workload name with
  | Ok p -> p
  | Error _ ->
    Printf.eprintf "unknown workload %S; available workloads:\n" name;
    List.iter
      (fun e -> Printf.eprintf "  %s\n" e.Registry.name)
      Registry.spec;
    List.iter (fun (n, _) -> Printf.eprintf "  %s\n" n) Ormp_workloads.Micro.all;
    Exit_codes.exit_usage ()

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see $(b,ormp list)).")

let config_of ~seed ~policy =
  let policy =
    match policy with
    | "bump" -> Ormp_memsim.Allocator.Bump
    | "first-fit" -> Ormp_memsim.Allocator.First_fit
    | "best-fit" -> Ormp_memsim.Allocator.Best_fit
    | "segregated" -> Ormp_memsim.Allocator.Segregated
    | "randomized" -> Ormp_memsim.Allocator.Randomized 7
    | other -> Exit_codes.usagef "unknown allocator %S" other
  in
  { Ormp_vm.Config.default with Ormp_vm.Config.policy; seed }

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload input seed.")

let policy_arg =
  Arg.(
    value
    & opt string "first-fit"
    & info [ "allocator" ] ~docv:"POLICY"
        ~doc:"Heap allocator: bump, first-fit, best-fit, segregated or randomized.")

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Attach the object-relative memory sanitizer to the same instrumented run and \
           append its report. Exit status 1 if it reports errors or warnings.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains for the profiling pipeline: with N > 1 the five grammars are \
           maintained on a worker pool, each worker behind a lock-free SPSC ring (N-1 \
           workers beside the producer; $(b,serve) shares N among its sessions). 0 (the \
           default) uses the machine's recommended domain count; 1 forces the serial \
           path. Profiles are byte-identical for every N.")

let resolve_jobs jobs =
  if jobs < 0 then Exit_codes.usagef "--jobs must be non-negative (got %d)" jobs;
  if jobs = 0 then Domain.recommended_domain_count () else jobs

let emit_sanitizer_report san ~table ~subject =
  let site_name i = (Ormp_trace.Instr.info table i).Ormp_trace.Instr.name in
  let r = Ormp_check.Sanitizer.finish ~site_name ~subject san in
  print_newline ();
  Format.printf "%a" Ormp_check.Report.render r;
  if not (Ormp_check.Report.clean r) then Exit_codes.exit_findings ()

(* --- list ----------------------------------------------------------- *)

let list_cmd =
  let run () =
    print_endline "SPEC2000 stand-ins (the paper's Table 1 rows):";
    List.iter
      (fun e ->
        let p = Registry.program e in
        Printf.printf "  %-18s %s\n" e.Registry.name p.Ormp_vm.Program.description)
      Registry.spec;
    print_endline "\nMicro workloads:";
    List.iter
      (fun (n, p) -> Printf.printf "  %-18s %s\n" n p.Ormp_vm.Program.description)
      Ormp_workloads.Micro.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads") Term.(const run $ const ())

(* --- trace ---------------------------------------------------------- *)

let trace_cmd =
  let run workload seed policy limit object_relative sanitize telemetry quiet =
    apply_quiet quiet;
    let program = find_program workload in
    let config = config_of ~seed ~policy in
    let printed = ref 0 in
    let san = Ormp_check.Sanitizer.create () in
    let with_sanitizer lanes =
      if sanitize then Ormp_trace.Batch.fanout [ lanes; Ormp_check.Sanitizer.batch san ]
      else lanes
    in
    let result =
      with_telemetry telemetry ~name:("trace:" ^ workload) @@ fun () ->
      if object_relative then begin
        let cdc =
          Ormp_core.Cdc.create
            ~site_name:(Printf.sprintf "site%d")
            ~on_tuple:(fun tu ->
              if !printed < limit then begin
                Format.printf "%a@." Ormp_core.Tuple.pp tu;
                incr printed
              end)
            ()
        in
        let result =
          Ormp_vm.Runner.run_batched ~config program (with_sanitizer (Ormp_core.Cdc.batch cdc))
        in
        Printf.printf "... %d accesses collected, %d wild\n"
          (Ormp_core.Cdc.collected cdc) (Ormp_core.Cdc.wild cdc);
        result
      end
      else begin
        let total = ref 0 in
        let print ev =
          if !printed < limit then begin
            Format.printf "%a@." Ormp_trace.Event.pp ev;
            incr printed
          end
        in
        let lanes =
          Ormp_trace.Batch.create
            ~on_chunk:(fun c ->
              total := !total + c.len;
              for i = 0 to min c.len (limit - !printed) - 1 do
                print
                  (Ormp_trace.Event.Access
                     {
                       instr = c.instr.(i);
                       addr = c.addr.(i);
                       size = c.size.(i);
                       is_store = c.store.(i) <> 0;
                     })
              done)
            ~on_event:(fun ev ->
              incr total;
              print ev)
            ()
        in
        let result = Ormp_vm.Runner.run_batched ~config program (with_sanitizer lanes) in
        Printf.printf "... %d events total\n" !total;
        result
      end
    in
    if sanitize then
      emit_sanitizer_report san ~table:result.Ormp_vm.Runner.table ~subject:workload
  in
  let limit =
    Arg.(value & opt int 40 & info [ "limit"; "n" ] ~docv:"N" ~doc:"Events to print.")
  in
  let object_relative =
    Arg.(
      value & flag
      & info [ "object-relative"; "r" ]
          ~doc:"Print translated (instr, group, object, offset, time) tuples instead of raw events.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump a workload's probe events")
    Term.(
      const run $ workload_arg $ seed_arg $ policy_arg $ limit $ object_relative
      $ sanitize_arg $ telemetry_arg $ quiet_arg)

(* --- whomp ---------------------------------------------------------- *)

let whomp_cmd =
  let run workload seed policy show_grammar save sanitize jobs telemetry quiet =
    apply_quiet quiet;
    let jobs = resolve_jobs jobs in
    let program = find_program workload in
    let config = config_of ~seed ~policy in
    (* One instrumented run through the pipeline yields both the OMSG
       profile and the RASG baseline. With --sanitize the sanitizer taps
       the same run, so it sees exactly the probe stream the profile was
       built from — and the profile is the same bytes as without it. *)
    let san = Ormp_check.Sanitizer.create () in
    let san_table =
      with_telemetry telemetry ~name:("whomp:" ^ workload) @@ fun () ->
      let wrap =
        if sanitize then
          Some (fun lanes -> Ormp_trace.Batch.fanout [ lanes; Ormp_check.Sanitizer.batch san ])
        else None
      in
      let pipe, result = Pipeline.run ~config ~jobs ?wrap program in
      let elapsed = result.Ormp_vm.Runner.elapsed in
      let p = Pipeline.whomp_profile pipe ~elapsed in
      let r = Pipeline.rasg_profile pipe ~elapsed in
      (match save with
      | Some path ->
        Ormp_persist.Whomp_io.save path p;
        Printf.printf "profile written to %s\n" path
      | None -> ());
      Printf.printf "collected accesses : %d (+%d wild)\n" p.Ormp_whomp.Whomp.collected
        p.Ormp_whomp.Whomp.wild;
      Printf.printf "groups             : %d\n" (List.length p.Ormp_whomp.Whomp.groups);
      Printf.printf "objects            : %d\n" (List.length p.Ormp_whomp.Whomp.lifetimes);
      List.iter
        (fun (dim, g) ->
          Printf.printf "OMSG %-7s grammar: %6d symbols, %6d rules, %7d bytes\n" dim
            (Ormp_sequitur.Sequitur.grammar_size g)
            (Ormp_sequitur.Sequitur.rule_count g)
            (Ormp_sequitur.Sequitur.byte_size g))
        p.Ormp_whomp.Whomp.dims;
      let ob = Ormp_whomp.Whomp.omsg_bytes p and rb = Ormp_whomp.Rasg.bytes r in
      Printf.printf "OMSG total         : %d bytes\n" ob;
      Printf.printf "RASG baseline      : %d bytes\n" rb;
      Printf.printf "compression        : %.1f%% (RASG as base)\n"
        (100.0 *. float_of_int (rb - ob) /. float_of_int rb);
      (match show_grammar with
      | None -> ()
      | Some dim -> (
        match List.assoc_opt dim p.Ormp_whomp.Whomp.dims with
        | Some g -> Format.printf "@.%s grammar:@.%a" dim Ormp_sequitur.Sequitur.pp g
        | None -> Printf.eprintf "no dimension %S (instr/group/object/offset)\n" dim));
      if sanitize then Some result.Ormp_vm.Runner.table else None
    in
    match san_table with
    | None -> ()
    | Some table -> emit_sanitizer_report san ~table ~subject:workload
  in
  let show_grammar =
    Arg.(
      value
      & opt (some string) None
      & info [ "show-grammar" ] ~docv:"DIM"
          ~doc:"Print the Sequitur grammar of one dimension (instr, group, object or offset).")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save"; "o" ] ~docv:"FILE" ~doc:"Write the profile to FILE (s-expression).")
  in
  Cmd.v
    (Cmd.info "whomp" ~doc:"Lossless object-relative profile (OMSG) vs the RASG baseline")
    Term.(
      const run $ workload_arg $ seed_arg $ policy_arg $ show_grammar $ save
      $ sanitize_arg $ jobs_arg $ telemetry_arg $ quiet_arg)

(* --- leap ----------------------------------------------------------- *)

let leap_cmd =
  let run workload seed policy budget show_deps show_strides save sanitize telemetry quiet =
    apply_quiet quiet;
    let program = find_program workload in
    let config = config_of ~seed ~policy in
    let san = Ormp_check.Sanitizer.create () in
    let san_table =
      with_telemetry telemetry ~name:("leap:" ^ workload) @@ fun () ->
      let p, san_table =
        if not sanitize then (Ormp_leap.Leap.profile ~config ~budget program, None)
      else begin
        let lb, fin =
          Ormp_leap.Leap.sink_batched ~budget ~site_name:(Printf.sprintf "site%d") ()
        in
        let fan = Ormp_trace.Batch.fanout [ lb; Ormp_check.Sanitizer.batch san ] in
        let result = Ormp_vm.Runner.run_batched ~config program fan in
        (fin ~elapsed:result.Ormp_vm.Runner.elapsed, Some result.Ormp_vm.Runner.table)
      end
    in
    (match save with
    | Some path ->
      Ormp_persist.Leap_io.save path p;
      Printf.printf "profile written to %s\n" path
    | None -> ());
    Printf.printf "collected accesses    : %d (+%d wild)\n" p.Ormp_leap.Leap.collected
      p.Ormp_leap.Leap.wild;
    Printf.printf "streams (instr,group) : %d\n" (List.length p.Ormp_leap.Leap.streams);
    Printf.printf "profile size          : %d bytes\n" (Ormp_leap.Leap.byte_size p);
    Printf.printf "compression ratio     : %s\n"
      (Ormp_util.Ascii.ratio (Ormp_leap.Leap.compression_ratio p));
    Printf.printf "accesses captured     : %s\n"
      (Ormp_util.Ascii.percent (Ormp_leap.Leap.accesses_captured p));
    Printf.printf "instructions captured : %s\n"
      (Ormp_util.Ascii.percent (Ormp_leap.Leap.instructions_captured p));
    if show_deps then begin
      print_endline "\nmemory dependence frequencies (LEAP post-process):";
      List.iter
        (fun d -> Format.printf "  %a@." Ormp_baselines.Dep_types.pp d)
        (Ormp_leap.Mdf.compute p)
    end;
    if show_strides then begin
      print_endline "\nstrongly-strided instructions (LEAP post-process):";
      List.iter
        (fun (i, s) -> Printf.printf "  instr %d: stride %d\n" i s)
        (Ormp_leap.Strides.strongly_strided p)
    end;
      san_table
    in
    match san_table with
    | None -> ()
    | Some table -> emit_sanitizer_report san ~table ~subject:workload
  in
  let budget =
    Arg.(
      value
      & opt int Ormp_lmad.Compressor.default_budget
      & info [ "budget" ] ~docv:"N" ~doc:"Maximum LMADs per (instruction, group) stream.")
  in
  let show_deps = Arg.(value & flag & info [ "deps" ] ~doc:"Run the dependence post-processor.") in
  let show_strides =
    Arg.(value & flag & info [ "strides" ] ~doc:"Run the stride post-processor.")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save"; "o" ] ~docv:"FILE" ~doc:"Write the profile to FILE (s-expression).")
  in
  Cmd.v
    (Cmd.info "leap" ~doc:"Lossy object-relative LMAD profile and its post-processors")
    Term.(
      const run $ workload_arg $ seed_arg $ policy_arg $ budget $ show_deps $ show_strides
      $ save $ sanitize_arg $ telemetry_arg $ quiet_arg)

(* --- compare -------------------------------------------------------- *)

let compare_cmd =
  let run workload seed policy window =
    let program = find_program workload in
    let config = config_of ~seed ~policy in
    let leap_batch, leap_fin =
      Ormp_leap.Leap.sink_batched ~site_name:(Printf.sprintf "site%d") ()
    in
    let truth = Ormp_baselines.Lossless_dep.create () in
    let connors = Ormp_baselines.Connors.create ~window () in
    let result =
      Ormp_vm.Runner.run_batched ~config program
        (Ormp_trace.Batch.fanout
           [
             leap_batch;
             Ormp_baselines.Lossless_dep.batch truth;
             Ormp_baselines.Connors.batch connors;
           ])
    in
    let table = result.Ormp_vm.Runner.table in
    let td = Ormp_baselines.Lossless_dep.deps truth in
    let ld = Ormp_leap.Mdf.compute (leap_fin ~elapsed:result.Ormp_vm.Runner.elapsed) in
    let cd = Ormp_baselines.Connors.deps connors in
    let name i = (Ormp_trace.Instr.info table i).Ormp_trace.Instr.name in
    let rows =
      List.map
        (fun (s, l) ->
          let f deps = Ormp_baselines.Dep_types.find deps ~store:s ~load:l in
          [
            name s;
            name l;
            Ormp_util.Ascii.percent (f td);
            Ormp_util.Ascii.percent (f ld);
            Ormp_util.Ascii.percent (f cd);
          ])
        (Ormp_baselines.Dep_types.pairs [ td; ld; cd ])
    in
    print_endline
      (Ormp_util.Ascii.table ~header:[ "store"; "load"; "lossless"; "LEAP"; "Connors" ] ~rows)
  in
  let window =
    Arg.(
      value
      & opt int Ormp_baselines.Connors.default_window
      & info [ "window" ] ~docv:"N" ~doc:"Connors history-window size.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Dependence-frequency table: lossless vs LEAP vs Connors")
    Term.(const run $ workload_arg $ seed_arg $ policy_arg $ window)

(* --- record / replay -------------------------------------------------- *)

let record_cmd =
  let run workload seed policy out =
    let program = find_program workload in
    let config = config_of ~seed ~policy in
    let oc = open_out out in
    let accesses = ref 0 and allocs = ref 0 and frees = ref 0 in
    let count =
      Ormp_trace.Batch.create
        ~on_chunk:(fun c -> accesses := !accesses + c.len)
        ~on_event:(function
          | Ormp_trace.Event.Alloc _ -> incr allocs
          | Ormp_trace.Event.Free _ -> incr frees
          | Ormp_trace.Event.Access _ -> ())
        ()
    in
    ignore
      (Ormp_vm.Runner.run_batched ~config program
         (Ormp_trace.Batch.fanout [ Ormp_trace.Trace_file.writer oc; count ]));
    close_out oc;
    Printf.printf "recorded %d accesses (+%d allocs, %d frees) to %s\n" !accesses !allocs
      !frees out
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Trace file to write.")
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Record a workload's raw probe-event trace to a file")
    Term.(const run $ workload_arg $ seed_arg $ policy_arg $ out)

let replay_cmd =
  let run path profiler quiet =
    apply_quiet quiet;
    let fail msg = Exit_codes.findingsf "%s" msg in
    let replay_into lanes finish =
      match Ormp_trace.Trace_file.replay path (Ormp_trace.Batch.event lanes) with
      | Ok n ->
        Ormp_trace.Batch.flush lanes;
        Printf.printf "replayed %d events from %s\n" n path;
        finish ()
      | Error msg -> fail msg
    in
    match profiler with
    | "whomp" ->
      let lanes, fin = Ormp_whomp.Whomp.sink_batched ~site_name:(Printf.sprintf "site%d") () in
      replay_into lanes (fun () ->
          let p = fin ~elapsed:0.0 in
          Printf.printf "WHOMP: %d accesses collected, OMSG %d bytes\n"
            p.Ormp_whomp.Whomp.collected (Ormp_whomp.Whomp.omsg_bytes p))
    | "leap" ->
      let lanes, fin = Ormp_leap.Leap.sink_batched ~site_name:(Printf.sprintf "site%d") () in
      replay_into lanes (fun () ->
          let p = fin ~elapsed:0.0 in
          Printf.printf "LEAP: %d accesses, %d bytes, %s captured\n" p.Ormp_leap.Leap.collected
            (Ormp_leap.Leap.byte_size p)
            (Ormp_util.Ascii.percent (Ormp_leap.Leap.accesses_captured p)))
    | "lossless" ->
      let t = Ormp_baselines.Lossless_dep.create () in
      replay_into (Ormp_baselines.Lossless_dep.batch t) (fun () ->
          List.iter
            (fun d -> Format.printf "  %a@." Ormp_baselines.Dep_types.pp d)
            (Ormp_baselines.Lossless_dep.deps t))
    | "connors" ->
      let t = Ormp_baselines.Connors.create () in
      replay_into (Ormp_baselines.Connors.batch t) (fun () ->
          List.iter
            (fun d -> Format.printf "  %a@." Ormp_baselines.Dep_types.pp d)
            (Ormp_baselines.Connors.deps t))
    | other ->
      (* A bad flag value is an argument error, not a replay failure. *)
      Exit_codes.usagef "unknown profiler %S (whomp/leap/lossless/connors)" other
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A trace recorded with $(b,ormp record).")
  in
  let profiler =
    Arg.(
      value
      & opt string "leap"
      & info [ "profiler"; "p" ] ~docv:"NAME"
          ~doc:"Profiler to replay into: whomp, leap, lossless or connors.")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a recorded trace through a profiler")
    Term.(const run $ path $ profiler $ quiet_arg)

(* --- post ----------------------------------------------------------- *)

let post_cmd =
  let run path show_deps show_strides =
    match Ormp_persist.Leap_io.load path with
    | Error msg -> Exit_codes.findingsf "cannot load %s: %s" path msg
    | Ok p ->
      Printf.printf "loaded LEAP profile: %d collected accesses, %d streams\n"
        p.Ormp_leap.Leap.collected
        (List.length p.Ormp_leap.Leap.streams);
      if show_deps || not show_strides then begin
        print_endline "\nmemory dependence frequencies:";
        List.iter
          (fun d -> Format.printf "  %a@." Ormp_baselines.Dep_types.pp d)
          (Ormp_leap.Mdf.compute p)
      end;
      if show_strides || not show_deps then begin
        print_endline "\nstrongly-strided instructions:";
        List.iter
          (fun (i, st) -> Printf.printf "  instr %d: stride %d\n" i st)
          (Ormp_leap.Strides.strongly_strided p)
      end
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A LEAP profile saved with $(b,ormp leap --save).")
  in
  let show_deps = Arg.(value & flag & info [ "deps" ] ~doc:"Only the dependence post-processor.") in
  let show_strides =
    Arg.(value & flag & info [ "strides" ] ~doc:"Only the stride post-processor.")
  in
  Cmd.v
    (Cmd.info "post" ~doc:"Run the LEAP post-processors on a saved profile")
    Term.(const run $ path $ show_deps $ show_strides)

(* --- check ----------------------------------------------------------- *)

let check_cmd =
  let run workload profile all seed policy faults leaks slack sexp =
    if slack < 0 then Exit_codes.usagef "--slack must be non-negative (got %d)" slack;
    let check_workload name =
      let config = config_of ~seed ~policy in
      let program = find_program name in
      let program = if faults then Ormp_workloads.Faults.inject program else program in
      let r = Ormp_check.Sanitizer.run ~config ~slack ~leaks program in
      if sexp then print_endline (Ormp_util.Sexp.to_string (Ormp_check.Report.to_sexp r))
      else Format.printf "%a" Ormp_check.Report.render r;
      Ormp_check.Report.clean r
    in
    (* One load, by the reader the file's head list names: every reader
       ends by checking the profile's invariants. *)
    let check_profile path =
      let module R = Ormp_util.Sexp.Reader in
      let head r =
        R.list r;
        let name = R.atom r in
        R.skip_rest r;
        name
      in
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error e ->
        prerr_endline e;
        false
      | text -> (
        let check kind read describe =
          match R.run text read with
          | Ok p ->
            Printf.printf "%s: %s profile OK (%s)\n" path kind (describe p);
            true
          | Error e ->
            Printf.eprintf "%s: invalid %s profile: %s\n" path kind e;
            false
        in
        match R.run text head with
        | Ok "ormp-whomp-profile" ->
          check "WHOMP" Ormp_persist.Whomp_io.read (fun p ->
              Printf.sprintf "%d accesses, %d objects" p.Ormp_whomp.Whomp.collected
                (List.length p.Ormp_whomp.Whomp.lifetimes))
        | Ok "ormp-leap-profile" ->
          check "LEAP" Ormp_persist.Leap_io.read (fun p ->
              Printf.sprintf "%d accesses, %d streams" p.Ormp_leap.Leap.collected
                (List.length p.Ormp_leap.Leap.streams))
        | Ok "ormp-rasg-profile" ->
          check "RASG" Ormp_persist.Rasg_io.read (fun p ->
              Printf.sprintf "%d accesses, %d symbols" p.Ormp_whomp.Rasg.accesses
                (Ormp_whomp.Rasg.size p))
        | Ok _ | Error _ ->
          Printf.eprintf "%s: not a profile\n" path;
          false)
    in
    let ok =
      match (workload, profile, all) with
      | Some w, None, false -> check_workload w
      | None, Some f, false -> check_profile f
      | None, None, true ->
        let names =
          List.map (fun e -> e.Registry.name) Registry.spec
          @ List.map fst Ormp_workloads.Micro.all
        in
        List.fold_left (fun acc n -> check_workload n && acc) true names
      | None, None, false ->
        Exit_codes.usagef "one of --workload, --profile or --all is required"
      | _ -> Exit_codes.usagef "--workload, --profile and --all are mutually exclusive"
    in
    if not ok then Exit_codes.exit_findings ()
  in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload"; "w" ] ~docv:"WORKLOAD"
          ~doc:"Sanitize one instrumented run of this workload.")
  in
  let profile =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile"; "p" ] ~docv:"FILE"
          ~doc:
            "Load a saved WHOMP, LEAP or RASG profile, by the reader its head list names; \
             loading checks the profile's invariants.")
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Sanitize every registered workload.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Plant one defect of each class (use-after-free, out-of-bounds, double-free, \
             leak, wild access) after the workload body — a sanitizer self-test; the run \
             is expected to be dirty.")
  in
  let leaks =
    Arg.(
      value & flag
      & info [ "leaks" ] ~doc:"Also report never-freed objects, one note per allocation site.")
  in
  let slack =
    Arg.(
      value
      & opt int Ormp_check.Sanitizer.default_slack
      & info [ "slack" ] ~docv:"BYTES"
          ~doc:
            "How far outside a live object an access may land and still be classified as \
             out-of-bounds against it rather than as unmapped.")
  in
  let sexp =
    Arg.(value & flag & info [ "sexp" ] ~doc:"Machine-readable s-expression report.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Sanitize a workload run or verify a saved profile's invariants")
    Term.(
      const run $ workload $ profile $ all $ seed_arg $ policy_arg $ faults $ leaks $ slack
      $ sexp)

(* --- lint ------------------------------------------------------------- *)

let lint_cmd =
  let run dirs sexp =
    let dirs = match dirs with [] -> [ "lib" ] | ds -> ds in
    List.iter
      (fun d ->
        if not (Sys.file_exists d) then Exit_codes.usagef "lint: no such file or directory: %s" d)
      dirs;
    let r = Ormp_check.Lint.scan dirs in
    if sexp then print_endline (Ormp_util.Sexp.to_string (Ormp_check.Lint.to_sexp r))
    else Format.printf "%a" Ormp_check.Lint.render r;
    if not (Ormp_check.Lint.clean r) then Exit_codes.exit_findings ()
  in
  let dirs =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:"Directories to scan recursively, or single .ml files (default: lib).")
  in
  let sexp =
    Arg.(value & flag & info [ "sexp" ] ~doc:"Machine-readable s-expression report.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static source pass enforcing the repo's concurrency and output conventions \
          (raw atomics outside the transport seam, Hashtbl iteration on output paths, \
          allocation in hot-path files, stderr writes bypassing the logger, boxed VM \
          drivers)")
    Term.(const run $ dirs $ sexp)

(* --- modelcheck ------------------------------------------------------- *)

let modelcheck_cmd =
  let module L = Ormp_modelcheck.Litmus in
  let module Mc = Ormp_modelcheck.Mc in
  let run litmus budget sexp =
    let cases =
      match litmus with
      | None -> L.cases
      | Some n -> (
        match L.find n with
        | Some c -> [ c ]
        | None ->
          Printf.eprintf "modelcheck: unknown litmus %S; available:\n" n;
          List.iter (fun (c : L.case) -> Printf.eprintf "  %s\n" c.name) L.cases;
          Exit_codes.exit_usage ())
    in
    let results = List.map (L.run_case ?max_interleavings:budget) cases in
    let failed = List.filter (fun (r : L.result) -> not r.ok) results in
    if sexp then begin
      let module S = Ormp_util.Sexp in
      let case_sexp (r : L.result) =
        let s = r.stats in
        S.field "case"
          ([
             S.field "name" [ S.atom r.case.name ];
             S.field "ok" [ S.atom (if r.ok then "true" else "false") ];
             S.field "expect-violation"
               [ S.atom (if r.case.expect_violation then "true" else "false") ];
             S.field "exhaustive" [ S.atom (if r.case.exhaustive then "true" else "false") ];
             S.field "interleavings" [ S.int s.Mc.interleavings ];
             S.field "steps" [ S.int s.Mc.steps_executed ];
             S.field "max-depth" [ S.int s.Mc.max_depth ];
             S.field "budget-exhausted"
               [ S.atom (if s.Mc.budget_exhausted then "true" else "false") ];
           ]
          @
          match s.Mc.violation with
          | None -> []
          | Some m ->
            [
              S.field "violation" [ S.atom m ];
              S.field "trace" (List.map S.atom s.Mc.trace);
            ])
      in
      print_endline
        (S.to_string
           (S.field "ormp-modelcheck-report"
              (S.field "cases" [ S.int (List.length results) ]
              :: S.field "failed" [ S.int (List.length failed) ]
              :: List.map case_sexp results)))
    end
    else begin
      Printf.printf "ormp-modelcheck: %d litmus case(s), %d failure(s)\n" (List.length results)
        (List.length failed);
      List.iter
        (fun (r : L.result) ->
          let s = r.stats in
          let verdict = if r.ok then "PASS" else "FAIL" in
          let outcome =
            match s.Mc.violation with
            | Some _ when r.case.expect_violation ->
              Printf.sprintf "violation found as expected (%d interleavings)"
                s.Mc.interleavings
            | Some m -> Printf.sprintf "VIOLATION: %s" m
            | None ->
              Printf.sprintf "%s, %d interleavings, %d steps, depth %d"
                (if s.Mc.budget_exhausted then "bounded (budget exhausted)" else "exhaustive")
                s.Mc.interleavings s.Mc.steps_executed s.Mc.max_depth
          in
          Printf.printf "  %s %-30s %s\n" verdict r.case.name outcome;
          (* The schedule is the actual diagnostic: print it whenever a
             violation was found, expected (the seeded race) or not. *)
          if s.Mc.violation <> None then begin
            (match s.Mc.violation with
            | Some m when r.case.expect_violation -> Printf.printf "       %s\n" m
            | _ -> ());
            List.iter (fun l -> Printf.printf "       | %s\n" l) s.Mc.trace
          end)
        results
    end;
    if failed <> [] then Exit_codes.exit_findings ()
  in
  let litmus =
    Arg.(
      value
      & opt (some string) None
      & info [ "litmus"; "l" ] ~docv:"NAME" ~doc:"Run a single litmus case by name.")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Cap the interleaving budget per case from above (never raises a case's own \
             budget).")
  in
  let sexp =
    Arg.(value & flag & info [ "sexp" ] ~doc:"Machine-readable s-expression report.")
  in
  Cmd.v
    (Cmd.info "modelcheck"
       ~doc:
         "Exhaustively explore the transport litmus suite (SPSC ring, worker shutdown and \
          drain barriers, pool slot pinning) under the DPOR model checker")
    Term.(const run $ litmus $ budget $ sexp)

(* --- analyze ---------------------------------------------------------- *)

let analyze_cmd =
  let run workload seed policy hot cluster phases =
    let program = find_program workload in
    let config = config_of ~seed ~policy in
    let everything = not (hot || cluster || phases) in
    let c = Ormp_analysis.Collect.run ~config program in
    if hot || everything then begin
      let p = Ormp_whomp.Whomp.profile ~config program in
      print_endline "hot data streams (per OMSG dimension):";
      List.iter
        (fun (dim, g) ->
          Printf.printf "  [%s]\n" dim;
          List.iter
            (fun h -> Format.printf "    %a@." Ormp_analysis.Hot_streams.pp h)
            (Ormp_analysis.Hot_streams.of_grammar ~top:3 g))
        p.Ormp_whomp.Whomp.dims
    end;
    if cluster || everything then begin
      print_endline "\nobject clustering (per multi-object group):";
      List.iter
        (fun (g : Ormp_core.Omc.group_info) ->
          if g.Ormp_core.Omc.population > 1 then begin
            let t = Ormp_analysis.Clustering.analyze c ~group:g.Ormp_core.Omc.gid in
            let before =
              Ormp_analysis.Clustering.replay_miss_rate c
                (Ormp_analysis.Clustering.sequential_layout c)
            in
            let after =
              Ormp_analysis.Clustering.replay_miss_rate c
                (Ormp_analysis.Clustering.clustered_layout c [ t ])
            in
            Printf.printf "  group %d (%s, %d objects): L1d miss %s -> %s\n"
              g.Ormp_core.Omc.gid g.Ormp_core.Omc.label g.Ormp_core.Omc.population
              (Ormp_util.Ascii.percent before) (Ormp_util.Ascii.percent after)
          end)
        c.Ormp_analysis.Collect.groups
    end;
    if phases || everything then begin
      print_endline "\nphases (group-mix signatures):";
      List.iter
        (fun ph -> Format.printf "  %a@." Ormp_analysis.Phase.pp ph)
        (Ormp_analysis.Phase.detect c.Ormp_analysis.Collect.tuples)
    end
  in
  let hot = Arg.(value & flag & info [ "hot" ] ~doc:"Hot data streams from the OMSG.") in
  let cluster =
    Arg.(value & flag & info [ "cluster" ] ~doc:"Object clustering with cache-simulated payoff.")
  in
  let phases = Arg.(value & flag & info [ "phases" ] ~doc:"Phase detection.") in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the optimization analyses on a workload's profile")
    Term.(const run $ workload_arg $ seed_arg $ policy_arg $ hot $ cluster $ phases)

(* --- session ---------------------------------------------------------- *)

module Session = Ormp_session.Session
module Suite = Ormp_session.Suite
module Supervise = Ormp_session.Supervise
module Snapshot = Ormp_session.Snapshot
module Fio = Ormp_workloads.Faults.Io

(* Injected I/O faults from `ormp session run`: deliberately killing the
   process at checkpoint N is how the crash-smoke alias (and any manual
   durability experiment) produces a half-finished session to resume. *)
let io_plan ~torn_write ~no_space ~crash_at =
  match (torn_write, no_space, crash_at) with
  | None, None, None -> None
  | _ -> Some (Fio.create { Fio.torn_write; no_space; kill_at_checkpoint = crash_at })

(* Exit 9 distinguishes "killed by the injected fault, session is
   resumable" from real argument (2) or runtime (1) errors. *)
let exit_killed f =
  try f ()
  with Fio.Killed n ->
    Printf.eprintf
      "killed by injected fault at checkpoint %d (journal is durable; run `ormp session resume`)\n"
      n;
    Exit_codes.exit_injected_kill ()

let nonneg name v =
  if v < 0 then Exit_codes.usagef "--%s must be non-negative (got %d)" name v

let print_outcome (o : Session.outcome) =
  Printf.printf "session %s: workload %s complete\n" o.Session.oc_dir o.Session.oc_workload;
  Printf.printf "  events      : %d (%d collected, %d wild)\n" o.Session.oc_position
    o.Session.oc_collected o.Session.oc_wild;
  Printf.printf "  checkpoints : %d written\n" o.Session.oc_checkpoints;
  (match o.Session.oc_resumed_from with
  | Some p ->
    Printf.printf "  resumed     : from event %d, %d journal events replayed\n" p
      o.Session.oc_replayed
  | None -> ());
  if o.Session.oc_rotations > 0 then
    Printf.printf "  rotations   : %d (%d sealed epoch files)\n" o.Session.oc_rotations
      (List.length o.Session.oc_epochs);
  List.iter
    (fun (d : Snapshot.degradation) ->
      Printf.printf "  degraded    : %s at event %d (%s)\n" d.Snapshot.dg_kind
        d.Snapshot.dg_position d.Snapshot.dg_detail)
    o.Session.oc_degradations;
  Printf.printf "  elapsed     : %.3fs\n" o.Session.oc_elapsed

let session_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"Session directory (journal, snapshots, profiles).")

let session_run_cmd =
  let run workload dir seed policy checkpoint_every watch_every grammar_budget max_streams
      leap_budget keep heartbeat_every jobs torn_write no_space crash_at telemetry quiet =
    apply_quiet quiet;
    let jobs = resolve_jobs jobs in
    nonneg "checkpoint-every" checkpoint_every;
    nonneg "watch-every" watch_every;
    nonneg "grammar-budget" grammar_budget;
    nonneg "max-streams" max_streams;
    nonneg "heartbeat-every" heartbeat_every;
    if keep < 1 then Exit_codes.usagef "--keep must be at least 1 (got %d)" keep;
    let config = config_of ~seed ~policy in
    let options =
      {
        Session.checkpoint_every;
        watch_every;
        grammar_budget;
        max_streams;
        leap_budget;
        keep;
      }
    in
    let io = io_plan ~torn_write ~no_space ~crash_at in
    exit_killed (fun () ->
        with_telemetry telemetry ~name:("session:" ^ workload) @@ fun () ->
        match Session.run ?io ~heartbeat_every ~jobs ~config ~options ~dir ~workload () with
        | Ok o -> print_outcome o
        | Error msg -> Exit_codes.findingsf "%s" msg)
  in
  let heartbeat_every =
    Arg.(
      value & opt int 0
      & info [ "heartbeat-every" ] ~docv:"N"
          ~doc:
            "Append a progress sample (events/sec, live state sizes, journal footprint) \
             to the session's heartbeat file every N raw events (0 disables; watch with \
             $(b,ormp session status --watch)).")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 4096
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Snapshot the profiler state every N raw events (0 disables checkpoints).")
  in
  let watch_every =
    Arg.(
      value & opt int 0
      & info [ "watch-every" ] ~docv:"N"
          ~doc:"Poll the memory-budget watchdog every N raw events (0 disables it).")
  in
  let grammar_budget =
    Arg.(
      value & opt int 0
      & info [ "grammar-budget" ] ~docv:"SYMBOLS"
          ~doc:
            "Total live Sequitur symbols (four OMSG dimensions plus RASG) above which the \
             watchdog rotates the grammars into sealed on-disk epochs (0 = unlimited).")
  in
  let max_streams =
    Arg.(
      value & opt int 0
      & info [ "max-streams" ] ~docv:"N"
          ~doc:"Cap on LEAP (instruction, group) streams; extra streams are dropped and \
                counted (0 = unlimited).")
  in
  let leap_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "leap-budget" ] ~docv:"N" ~doc:"Per-stream LMAD budget override.")
  in
  let keep =
    Arg.(
      value & opt int 2
      & info [ "keep" ] ~docv:"N" ~doc:"Snapshots retained; older ones are pruned.")
  in
  let torn_write =
    Arg.(
      value
      & opt (some int) None
      & info [ "torn-write" ] ~docv:"N"
          ~doc:"Fault injection: tear the Nth journal/snapshot write in half.")
  in
  let no_space =
    Arg.(
      value
      & opt (some int) None
      & info [ "no-space" ] ~docv:"N" ~doc:"Fault injection: fail the Nth write with ENOSPC.")
  in
  let crash_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-at-checkpoint" ] ~docv:"N"
          ~doc:
            "Fault injection: kill the process (exit 9) right after the Nth snapshot is \
             written, leaving a resumable session behind.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Start a crash-safe profiling session (journal + checkpoints)")
    Term.(
      const run $ workload_arg $ session_dir_arg $ seed_arg $ policy_arg $ checkpoint_every
      $ watch_every $ grammar_budget $ max_streams $ leap_budget $ keep $ heartbeat_every
      $ jobs_arg $ torn_write $ no_space $ crash_at $ telemetry_arg $ quiet_arg)

let session_resume_cmd =
  let run dir heartbeat_every jobs torn_write no_space crash_at telemetry quiet =
    apply_quiet quiet;
    let jobs = resolve_jobs jobs in
    nonneg "heartbeat-every" heartbeat_every;
    let io = io_plan ~torn_write ~no_space ~crash_at in
    exit_killed (fun () ->
        with_telemetry telemetry ~name:"session:resume" @@ fun () ->
        match Session.resume ?io ~heartbeat_every ~jobs ~dir () with
        | Ok o -> print_outcome o
        | Error msg -> Exit_codes.findingsf "%s" msg)
  in
  let heartbeat_every =
    Arg.(
      value & opt int 0
      & info [ "heartbeat-every" ] ~docv:"N"
          ~doc:
            "Append a progress sample to the session's heartbeat file every N raw \
             events (0 disables). The cadence is per-process: a resume may pick a \
             different one than the original run.")
  in
  let torn_write =
    Arg.(
      value
      & opt (some int) None
      & info [ "torn-write" ] ~docv:"N" ~doc:"Fault injection: tear the Nth write in half.")
  in
  let no_space =
    Arg.(
      value
      & opt (some int) None
      & info [ "no-space" ] ~docv:"N" ~doc:"Fault injection: fail the Nth write with ENOSPC.")
  in
  let crash_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-at-checkpoint" ] ~docv:"N"
          ~doc:"Fault injection: kill the process again at the Nth new snapshot.")
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:"Resume a killed session from its newest valid snapshot and journal tail")
    Term.(
      const run $ session_dir_arg $ heartbeat_every $ jobs_arg $ torn_write $ no_space
      $ crash_at $ telemetry_arg $ quiet_arg)

let print_heartbeat_sample (s : Ormp_telemetry.Heartbeat.sample) =
  Printf.printf "  %8.2fs  event %-9d %9.0f ev/s  objs %-6d syms %-6d streams %-5d ckpt @%-9d%s\n%!"
    s.Ormp_telemetry.Heartbeat.wall_s s.Ormp_telemetry.Heartbeat.position
    s.Ormp_telemetry.Heartbeat.events_per_sec s.Ormp_telemetry.Heartbeat.live_objects
    s.Ormp_telemetry.Heartbeat.grammar_symbols s.Ormp_telemetry.Heartbeat.leap_streams
    s.Ormp_telemetry.Heartbeat.last_checkpoint
    (match s.Ormp_telemetry.Heartbeat.degraded with
    | [] -> ""
    | ds -> " degraded:" ^ String.concat "," ds)

let session_status_cmd =
  let print_status (st : Session.status_info) =
    Printf.printf "workload : %s\n" st.Session.st_workload;
    (match st.Session.st_snapshot with
    | Some (k, pos) -> Printf.printf "snapshot : #%d at event %d\n" k pos
    | None -> print_endline "snapshot : none");
    (match st.Session.st_journal with
    | Some n -> Printf.printf "journal  : %d events\n" n
    | None -> print_endline "journal  : none");
    print_endline
      (if st.Session.st_complete then "complete : yes (profiles and report written)"
       else "complete : no (resumable)")
  in
  let run dir watch interval =
    if interval <= 0.0 then
      Exit_codes.usagef "--interval must be positive (got %g)" interval;
    match Session.status ~dir with
    | Error msg -> Exit_codes.findingsf "%s" msg
    | Ok st ->
      print_status st;
      if watch then begin
        (* Tail the heartbeat file: print samples as the running process
           appends them, stop once the session's final report exists (or
           immediately after draining, if it is already complete). *)
        let hb_path = Filename.concat dir Session.heartbeat_file in
        let seen = ref 0 in
        let drain () =
          let samples = Ormp_telemetry.Heartbeat.load hb_path in
          List.iteri (fun i s -> if i >= !seen then print_heartbeat_sample s) samples;
          seen := max !seen (List.length samples)
        in
        let complete () =
          match Session.status ~dir with
          | Ok st -> st.Session.st_complete
          | Error _ -> false
        in
        let rec loop () =
          drain ();
          if not (complete ()) then begin
            Unix.sleepf interval;
            loop ()
          end
        in
        if not st.Session.st_complete then begin
          loop ();
          print_endline "complete : yes (profiles and report written)"
        end
        else drain ()
      end
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Tail the session's heartbeat file, printing each progress sample, until \
             the final report is written. A session must be started with \
             $(b,--heartbeat-every) for samples to appear.")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Polling interval for $(b,--watch).")
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Inspect a session directory: newest snapshot, journal, completion")
    Term.(const run $ session_dir_arg $ watch $ interval)

let session_suite_cmd =
  let run seed policy timeout_s retries backoff_s faults jobs out_dir report telemetry
      quiet =
    apply_quiet quiet;
    let jobs = resolve_jobs jobs in
    if retries < 0 then Exit_codes.usagef "--retries must be non-negative (got %d)" retries;
    let config = config_of ~seed ~policy in
    let r =
      with_telemetry telemetry ~name:"session:suite" @@ fun () ->
      Suite.run ?timeout_s ~retries ?backoff_s ~faults ~config ~jobs ?out_dir ()
    in
    List.iter
      (fun (e : Suite.entry) ->
        let tag =
          match e.Suite.en_fault with
          | Some f -> Printf.sprintf "%s (+%s)" e.Suite.en_workload (Suite.fault_name f)
          | None -> e.Suite.en_workload
        in
        match e.Suite.en_outcome with
        | Supervise.Completed s ->
          Printf.printf "  %-28s ok      %8d accesses, OMSG %d symbols, %.2fs\n" tag
            s.Suite.sc_collected s.Suite.sc_omsg s.Suite.sc_elapsed
        | Supervise.Failed f ->
          Printf.printf "  %-28s FAILED  after %d attempts: %s\n" tag f.Supervise.attempts
            f.Supervise.error
        | Supervise.Timed_out { attempts; timeout_s } ->
          Printf.printf "  %-28s HUNG    cancelled after %.1fs (attempt %d)\n" tag timeout_s
            attempts)
      r.Suite.rp_entries;
    Printf.printf "suite: %d completed, %d failed, %d timed out (%.1fs)\n" r.Suite.rp_completed
      r.Suite.rp_failed r.Suite.rp_timed_out r.Suite.rp_elapsed;
    match report with
    | Some path ->
      Suite.save_report path r;
      Printf.printf "report written to %s\n" path
    | None -> ()
  in
  let timeout_s =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-workload deadline; a hang is cooperatively cancelled past it.")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N" ~doc:"Crash retries per workload (with linear backoff).")
  in
  let backoff_s =
    Arg.(
      value
      & opt (some float) None
      & info [ "backoff" ] ~docv:"SECONDS" ~doc:"Base retry backoff (grows linearly).")
  in
  let faults =
    let fault = Arg.enum [ ("crash", Suite.Crash); ("hang", Suite.Hang) ] in
    Arg.(
      value
      & opt_all (pair ~sep:'=' string fault) []
      & info [ "fault" ] ~docv:"WORKLOAD=crash|hang"
          ~doc:
            "Inject a process-level fault into the named registry workload (repeatable) — \
             validates that the supervisor isolates it from the rest of the suite.")
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:"Save each completed workload's WHOMP profile as DIR/<name>.whomp.")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report"; "o" ] ~docv:"FILE"
          ~doc:"Write the structured partial-results report (s-expression) to FILE.")
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Profile every registry workload under supervision: per-workload timeouts, crash \
          retries, partial-results report; always exits 0 on workload failures")
    Term.(
      const run $ seed_arg $ policy_arg $ timeout_s $ retries $ backoff_s $ faults
      $ jobs_arg $ out_dir $ report $ telemetry_arg $ quiet_arg)

let session_cmd =
  Cmd.group
    (Cmd.info "session"
       ~doc:"Crash-safe profiling sessions: checkpoint/resume, status, supervised suite")
    [ session_run_cmd; session_resume_cmd; session_status_cmd; session_suite_cmd ]

(* --- serve / client ---------------------------------------------------- *)

module Daemon = Ormp_server.Daemon
module Client = Ormp_server.Client
module Net_fault = Ormp_workloads.Faults.Net

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let run socket root jobs max_sessions grammar_budget max_occupancy idle_timeout
      frame_timeout ping_every heartbeat_every retry_after leap_budget max_streams
      stats_file no_stats quiet =
    apply_quiet quiet;
    let jobs = resolve_jobs jobs in
    nonneg "max-sessions" max_sessions;
    nonneg "grammar-budget" grammar_budget;
    nonneg "max-streams" max_streams;
    if max_occupancy <= 0.0 || max_occupancy > 1.0 then
      Exit_codes.usagef "--max-occupancy must be in (0, 1] (got %g)" max_occupancy;
    if idle_timeout <= 0.0 || frame_timeout <= 0.0 || ping_every <= 0.0 then
      Exit_codes.usagef "timeouts must be positive";
    let opts =
      {
        (Daemon.default_options ~socket ~root) with
        Daemon.jobs;
        max_sessions;
        grammar_budget;
        max_occupancy;
        idle_timeout_s = idle_timeout;
        frame_timeout_s = frame_timeout;
        ping_every_s = ping_every;
        heartbeat_every_s = heartbeat_every;
        retry_after_s = retry_after;
        leap_budget;
        max_streams;
        stats = not no_stats;
        stats_file;
      }
    in
    let t =
      try Daemon.create opts
      with Unix.Unix_error (e, _, arg) ->
        Exit_codes.findingsf "cannot listen on %s: %s (%s)" socket (Unix.error_message e)
          arg
    in
    Printf.printf "ormp serve: listening on %s, sessions under %s/sessions\n%!" socket root;
    Daemon.run ~handle_signals:true t;
    Printf.printf "ormp serve: drained, exiting\n%!"
  in
  let root =
    Arg.(
      required
      & opt (some string) None
      & info [ "root"; "d" ] ~docv:"DIR"
          ~doc:"State directory; each session journals under DIR/sessions/<token>/.")
  in
  let max_sessions =
    Arg.(
      value & opt int 64
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Shed new sessions past N concurrent ones (0 = unlimited).")
  in
  let grammar_budget =
    Arg.(
      value & opt int 0
      & info [ "grammar-budget" ] ~docv:"SYMBOLS"
          ~doc:
            "Shed new sessions once the live Sequitur symbols across all attached \
             sessions exceed this (0 = unlimited).")
  in
  let max_occupancy =
    Arg.(
      value & opt float 0.95
      & info [ "max-occupancy" ] ~docv:"FRACTION"
          ~doc:"Shed new sessions when compressor-ring occupancy exceeds this.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Drop a connection that has sent nothing for this long.")
  in
  let frame_timeout =
    Arg.(
      value & opt float 5.0
      & info [ "frame-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Treat a frame still partially received after this long as a slow-loris and \
             drop the connection (protocol error on that session only).")
  in
  let ping_every =
    Arg.(
      value & opt float 5.0
      & info [ "ping-every" ] ~docv:"SECONDS" ~doc:"Liveness ping cadence on quiet connections.")
  in
  let heartbeat_every =
    Arg.(
      value & opt float 1.0
      & info [ "heartbeat-every" ] ~docv:"SECONDS"
          ~doc:
            "How often the grammar-symbol figure that Stats snapshots serve is \
             refreshed (0 disables) and $(b,--stats-file) is exported.")
  in
  let retry_after =
    Arg.(
      value & opt float 0.05
      & info [ "retry-after" ] ~docv:"SECONDS" ~doc:"Retry hint carried by shed responses.")
  in
  let leap_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "leap-budget" ] ~docv:"N" ~doc:"Per-session LEAP LMAD budget override.")
  in
  let max_streams =
    Arg.(
      value & opt int 0
      & info [ "max-streams" ] ~docv:"N"
          ~doc:"Per-session cap on LEAP streams (0 = unlimited).")
  in
  let stats_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-file" ] ~docv:"PATH"
          ~doc:
            "Also export the live stats snapshot to PATH (atomic rename) at \
             $(b,--heartbeat-every) cadence: the JSON document a Stats frame carries, \
             the scrape-friendly twin of $(b,ormp top).")
  in
  let no_stats =
    Arg.(
      value & flag
      & info [ "no-stats" ]
          ~doc:
            "Do not enable the telemetry registry; Stats requests are still answered \
             but carry only the select loop's own gauges. For overhead measurement.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the profiling daemon: many concurrent sessions over one Unix socket, each \
          journaled and crash-recoverable, with overload shedding and graceful drain on \
          SIGTERM")
    Term.(
      const run $ socket_arg $ root $ jobs_arg $ max_sessions $ grammar_budget
      $ max_occupancy $ idle_timeout $ frame_timeout $ ping_every $ heartbeat_every
      $ retry_after $ leap_budget $ max_streams $ stats_file $ no_stats $ quiet_arg)

let client_cmd =
  let run workload socket token seed sessions ack_every attempts timeout torn_frame
      disconnect_before slow_frame dup_retry reference quiet =
    apply_quiet quiet;
    if sessions < 1 then Exit_codes.usagef "--sessions must be at least 1 (got %d)" sessions;
    if ack_every < 1 then Exit_codes.usagef "--ack-every must be at least 1 (got %d)" ack_every;
    if attempts < 1 then Exit_codes.usagef "--attempts must be at least 1 (got %d)" attempts;
    if timeout <= 0.0 then Exit_codes.usagef "--timeout must be positive (got %g)" timeout;
    List.iter
      (fun (name, v) ->
        match v with
        | Some n when n < 1 -> Exit_codes.usagef "--%s must be at least 1 (got %d)" name n
        | _ -> ())
      [
        ("torn-frame", torn_frame);
        ("disconnect-before", disconnect_before);
        ("slow-frame", slow_frame);
        ("dup-retry", dup_retry);
      ];
    match Client.generate ~workload ~seed with
    | Error msg -> Exit_codes.usagef "%s" msg
    | Ok (events, n) ->
      Printf.printf "generated %d events from %s (seed %d)\n%!" n workload seed;
      (match reference with
      | Some dir ->
        Client.reference ~dir ~events;
        Printf.printf "reference profiles written to %s\n" dir
      | None -> ());
      let plan = { Net_fault.torn_frame; disconnect_before; slow_frame; dup_retry } in
      let t0 = Ormp_util.Clock.now_s () in
      let failed = ref 0 in
      let latencies = ref [] in
      let frames = ref 0 and reconnects = ref 0 and sheds = ref 0 in
      for i = 0 to sessions - 1 do
        let tok = if sessions = 1 then token else Printf.sprintf "%s-%d" token i in
        let retry = { Client.default_retry with Client.attempts; seed = 0x5eed + i } in
        match
          Client.run_session ~socket ~token:tok ~workload ~events ~ack_every ~retry
            ~net:(Net_fault.create plan) ~io_timeout_s:timeout ()
        with
        | Ok st ->
          frames := !frames + st.Client.st_frames;
          reconnects := !reconnects + st.Client.st_reconnects;
          sheds := !sheds + st.Client.st_sheds;
          latencies := st.Client.st_ack_latencies @ !latencies;
          Printf.printf "  %-24s ok      %6d frames, %4d acks, %d reconnects, %d sheds, %.3fs\n%!"
            tok st.Client.st_frames st.Client.st_acks st.Client.st_reconnects
            st.Client.st_sheds st.Client.st_wall_s
        | Error msg ->
          incr failed;
          Printf.printf "  %-24s FAILED  %s\n%!" tok msg
      done;
      let wall = Ormp_util.Clock.now_s () -. t0 in
      Printf.printf "client: %d session(s) in %.3fs (%.1f sessions/sec)\n"
        sessions wall
        (if wall > 0.0 then float_of_int sessions /. wall else 0.0);
      Printf.printf "  frames %d, reconnects %d, sheds %d, ack p50 %.2fms p99 %.2fms\n"
        !frames !reconnects !sheds
        (1000.0 *. Ormp_util.Stats.percentile !latencies 50.0)
        (1000.0 *. Ormp_util.Stats.percentile !latencies 99.0);
      if !failed > 0 then Exit_codes.exit_findings ()
  in
  let token =
    Arg.(
      value & opt string "client"
      & info [ "token" ] ~docv:"TOKEN"
          ~doc:
            "Session token; resume-after-crash identity, and the daemon-side directory \
             name. With --sessions N the tokens are TOKEN-0 .. TOKEN-(N-1).")
  in
  let sessions =
    Arg.(
      value & opt int 1
      & info [ "sessions" ] ~docv:"N"
          ~doc:"Stream the generated events N times as N distinct sequential sessions.")
  in
  let ack_every =
    Arg.(
      value & opt int 4
      & info [ "ack-every" ] ~docv:"N"
          ~doc:"Ask the daemon to flush and acknowledge every N data frames.")
  in
  let attempts =
    Arg.(
      value & opt int Client.default_retry.Client.attempts
      & info [ "attempts" ] ~docv:"N"
          ~doc:"Connection attempts per session before giving up (exponential backoff).")
  in
  let timeout =
    Arg.(
      value & opt float 10.0
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-operation I/O deadline.")
  in
  let fault name doc =
    Arg.(value & opt (some int) None & info [ name ] ~docv:"N" ~doc)
  in
  let torn_frame =
    fault "torn-frame" "Fault injection: send half of the Nth data frame, then drop the \
                        connection."
  in
  let disconnect_before =
    fault "disconnect-before" "Fault injection: drop the connection instead of sending \
                               the Nth data frame."
  in
  let slow_frame =
    fault "slow-frame" "Fault injection: dribble the Nth data frame out in tiny delayed \
                        chunks."
  in
  let dup_retry =
    fault "dup-retry" "Fault injection: on the first resumed reconnect, rewind the send \
                       position by N events past the acknowledged point (the daemon must \
                       deduplicate)."
  in
  let reference =
    Arg.(
      value
      & opt (some string) None
      & info [ "reference" ] ~docv:"DIR"
          ~doc:
            "Also run the identical profiling pipeline locally and write the three \
             profile files to DIR — the byte-comparison baseline for the daemon's \
             session directory.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Stream a workload's events to an $(b,ormp serve) daemon, surviving shedding, \
          injected wire faults and daemon restarts; reports sessions/sec and ack latency")
    Term.(
      const run $ workload_arg $ socket_arg $ token $ seed_arg $ sessions $ ack_every
      $ attempts $ timeout $ torn_frame $ disconnect_before $ slow_frame $ dup_retry
      $ reference $ quiet_arg)

(* --- stats ------------------------------------------------------------ *)

let stats_cmd =
  let run dir check quiet =
    apply_quiet quiet;
    let ( // ) = Filename.concat in
    let failed = ref false in
    let problem fmt =
      Printf.ksprintf
        (fun m ->
          Printf.eprintf "%s\n" m;
          failed := true)
        fmt
    in
    let load path decode =
      if not (Sys.file_exists path) then begin
        problem "%s: missing" path;
        None
      end
      else
        match Result.bind (Ormp_util.Json.of_string (read_file path)) decode with
        | Ok v -> Some v
        | Error msg ->
          problem "%s: %s" path msg;
          None
    in
    Option.iter
      (fun snap -> print_string (Telemetry.Metrics.render snap))
      (load (dir // Telemetry.metrics_json_file) Telemetry.Metrics.of_json);
    (match load (dir // Telemetry.trace_file) Telemetry.Spans.validate_json with
    | Some n -> Printf.printf "trace    : %d complete spans, nesting OK\n" n
    | None -> ());
    (let hb_path = dir // Session.heartbeat_file in
     if Sys.file_exists hb_path then
       match Ormp_telemetry.Heartbeat.load hb_path with
       | [] -> ()
       | samples ->
         Printf.printf "heartbeat: %d samples, last:\n" (List.length samples);
         print_heartbeat_sample (List.nth samples (List.length samples - 1)));
    if check && !failed then Exit_codes.exit_findings ()
  in
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:"A telemetry directory written by a $(b,--telemetry) run.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit 1 unless metrics.json decodes as a registry snapshot and every span \
             in the trace is strictly nested (B/E pairs match per thread, LIFO).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Pretty-print (and validate) the telemetry reports of a --telemetry run")
    Term.(const run $ dir $ check $ quiet_arg)

(* --- top -------------------------------------------------------------- *)

let top_cmd =
  let module Stats = Ormp_server.Stats in
  let run socket interval once timeout quiet =
    apply_quiet quiet;
    if interval <= 0.0 then Exit_codes.usagef "--interval must be positive (got %g)" interval;
    if timeout <= 0.0 then Exit_codes.usagef "--timeout must be positive (got %g)" timeout;
    let fetch () = Client.fetch_stats ~socket ~io_timeout_s:timeout () in
    if once then
      match fetch () with
      | Ok s -> print_string (Stats.render s)
      | Error e -> Exit_codes.findingsf "cannot fetch stats from %s: %s" socket e
    else begin
      let failures = ref 0 in
      while true do
        (match fetch () with
        | Ok s ->
          failures := 0;
          (* Clear + home, the watch(1) idiom, so the tables repaint in
             place instead of scrolling. *)
          print_string "\x1b[2J\x1b[H";
          Printf.printf "ormp top — %s — every %.1fs (ctrl-c to quit)\n\n" socket interval;
          print_string (Stats.render s);
          flush stdout
        | Error e ->
          incr failures;
          Printf.eprintf "ormp top: %s\n%!" e;
          (* A restarting daemon deserves patience; a gone one does not. *)
          if !failures >= 5 then
            Exit_codes.findingsf "cannot fetch stats from %s after %d attempts" socket
              !failures);
        Ormp_server.Net_io.sleep interval
      done
    end
  in
  let socket =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOCKET" ~doc:"Unix-domain socket of a running $(b,ormp serve).")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval"; "n" ] ~docv:"SECONDS" ~doc:"Refresh cadence.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Print a single snapshot and exit (no screen clearing).")
  in
  let timeout =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-fetch I/O deadline.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a running $(b,ormp serve): daemon gauges, per-session rows \
          (position, events/s, ack latency, ring occupancy, journal lag) and the \
          telemetry registry, refreshed in place")
    Term.(const run $ socket $ interval $ once $ timeout $ quiet_arg)

let () =
  let doc = "object-relative memory profiling (WHOMP/LEAP, CGO 2004)" in
  let info = Cmd.info "ormp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; trace_cmd; whomp_cmd; leap_cmd; compare_cmd; check_cmd; lint_cmd; modelcheck_cmd; post_cmd; analyze_cmd; record_cmd; replay_cmd; session_cmd; serve_cmd; client_cmd; stats_cmd; top_cmd ]))
