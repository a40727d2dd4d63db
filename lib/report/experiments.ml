(* lint:allow-file orphan-module — bench/main.exe, the evaluation harness
   that regenerates every figure and table, is this module's caller. *)

open Ormp_util
open Ormp_workloads
module Dt = Ormp_baselines.Dep_types

type suite = {
  entry : Registry.entry;
  leap : Ormp_leap.Leap.profile;
  truth : Ormp_baselines.Lossless_dep.t;
  connors : Ormp_baselines.Connors.t;
  wu : Ormp_baselines.Lossless_stride.t;
}

let site_name = Printf.sprintf "site%d"

let run_suite ?(bench = false) entry =
  let program = Registry.program ~bench entry in
  let leap_batch, leap_fin = Ormp_leap.Leap.sink_batched ~site_name () in
  let truth = Ormp_baselines.Lossless_dep.create () in
  let connors = Ormp_baselines.Connors.create () in
  let wu = Ormp_baselines.Lossless_stride.create () in
  let lanes =
    Ormp_trace.Batch.fanout
      [
        leap_batch;
        Ormp_baselines.Lossless_dep.batch truth;
        Ormp_baselines.Connors.batch connors;
        Ormp_baselines.Lossless_stride.batch wu;
      ]
  in
  let result = Ormp_vm.Runner.run_batched program lanes in
  { entry; leap = leap_fin ~elapsed:result.Ormp_vm.Runner.elapsed; truth; connors; wu }

let run_suites ?bench ?(parallel = false) () =
  if not parallel then List.map (run_suite ?bench) Registry.spec
  else
    (* One domain per workload (seven suites). Each suite builds its own
       program, profilers and tables from scratch, so the domains share
       nothing mutable; joining in [spec] order keeps the result
       deterministic regardless of completion order. *)
    Registry.spec
    |> List.map (fun entry -> Domain.spawn (fun () -> run_suite ?bench entry))
    |> List.map Domain.join

(* --- Figure 5 ------------------------------------------------------ *)

type fig5_row = {
  workload : string;
  rasg_bytes : int;
  omsg_bytes : int;
  rasg_symbols : int;
  omsg_symbols : int;
  compression_pct : float;
  rasg_time : float;
  omsg_time : float;
}

let fig5_row ?bench entry =
  let program = Registry.program ?bench entry in
  let omsg = Ormp_whomp.Whomp.profile program in
  let rasg = Ormp_whomp.Rasg.profile program in
  let rb = Ormp_whomp.Rasg.bytes rasg in
  let ob = Ormp_whomp.Whomp.omsg_bytes omsg in
  {
    workload = entry.Registry.name;
    rasg_bytes = rb;
    omsg_bytes = ob;
    rasg_symbols = Ormp_whomp.Rasg.size rasg;
    omsg_symbols = Ormp_whomp.Whomp.omsg_size omsg;
    compression_pct = (if rb = 0 then 0.0 else float_of_int (rb - ob) /. float_of_int rb);
    rasg_time = rasg.Ormp_whomp.Rasg.elapsed;
    omsg_time = omsg.Ormp_whomp.Whomp.elapsed;
  }

let fig5 ?bench () = List.map (fig5_row ?bench) Registry.spec

let render_fig5 rows =
  let avg = Stats.mean (List.map (fun r -> r.compression_pct) rows) in
  let table =
    Ascii.table
      ~header:
        [
          "benchmark"; "RASG bytes"; "OMSG bytes"; "compression"; "RASG syms"; "OMSG syms";
          "RASG time"; "OMSG time";
        ]
      ~rows:
        (List.map
           (fun r ->
             [
               r.workload;
               string_of_int r.rasg_bytes;
               string_of_int r.omsg_bytes;
               Ascii.percent r.compression_pct;
               string_of_int r.rasg_symbols;
               string_of_int r.omsg_symbols;
               Printf.sprintf "%.2fs" r.rasg_time;
               Printf.sprintf "%.2fs" r.omsg_time;
             ])
           rows)
  in
  let chart =
    Ascii.bar_chart
      ~labels:(Array.of_list (List.map (fun r -> r.workload) rows))
      ~values:(Array.of_list (List.map (fun r -> 100.0 *. r.compression_pct) rows))
      ()
  in
  Printf.sprintf
    "%s\n%s\n\nCompression of OMSG over RASG (%%, RASG as base; paper avg: 22%%):\n%s\n\
     Average: %s  (paper: 22%%)\n"
    (Ascii.section "Figure 5: OMSG vs RASG compression")
    table chart (Ascii.percent avg)

(* --- Figures 6-8 ---------------------------------------------------- *)

type dist_row = { workload : string; hist : Histogram.t }

let fig6 suites =
  List.map
    (fun s ->
      {
        workload = s.entry.Registry.name;
        hist =
          Error_dist.of_deps
            ~truth:(Ormp_baselines.Lossless_dep.deps s.truth)
            ~estimate:(Ormp_leap.Mdf.compute s.leap);
      })
    suites

let fig7 suites =
  List.map
    (fun s ->
      {
        workload = s.entry.Registry.name;
        hist =
          Error_dist.of_deps
            ~truth:(Ormp_baselines.Lossless_dep.deps s.truth)
            ~estimate:(Ormp_baselines.Connors.deps s.connors);
      })
    suites

let render_dist ~title rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Ascii.section title);
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s: %d dependent pairs, good(|err|<=10%%)=%s over+=%s under-=%s\n"
           r.workload (Histogram.total r.hist)
           (Ascii.percent (Error_dist.good_fraction r.hist))
           (Ascii.percent (Error_dist.overestimates r.hist))
           (Ascii.percent (Error_dist.underestimates r.hist))))
    rows;
  let merged = List.fold_left (fun acc r -> Histogram.merge acc r.hist)
      (Histogram.centered ~half_width:100.0 ~half_buckets:Error_dist.half_buckets) rows
  in
  Buffer.add_string buf "\nPooled error distribution (percent of pairs per bucket):\n";
  Buffer.add_string buf
    (Ascii.bar_chart ~width:30 ~labels:(Histogram.labels merged)
       ~values:(Array.map (fun f -> 100.0 *. f) (Histogram.fractions merged))
       ());
  Buffer.add_char buf '\n';
  Buffer.contents buf

type fig8_data = {
  leap_avg : Histogram.t;
  connors_avg : Histogram.t;
  leap_good : float;
  connors_good : float;
  improvement_pct : float;
}

let fig8 suites =
  let merge rows =
    List.fold_left (fun acc r -> Histogram.merge acc r.hist)
      (Histogram.centered ~half_width:100.0 ~half_buckets:Error_dist.half_buckets) rows
  in
  let leap_avg = merge (fig6 suites) in
  let connors_avg = merge (fig7 suites) in
  let leap_good = Error_dist.good_fraction leap_avg in
  let connors_good = Error_dist.good_fraction connors_avg in
  let improvement_pct =
    if connors_good = 0.0 then Float.infinity
    else 100.0 *. (leap_good -. connors_good) /. connors_good
  in
  { leap_avg; connors_avg; leap_good; connors_good; improvement_pct }

let render_fig8 d =
  Printf.sprintf
    "%s\nLEAP   : good(|err|<=10%%) = %s of dependent pairs  (paper: ~75%%)\n\
     Connors: good(|err|<=10%%) = %s\n\
     LEAP improvement over Connors: %.0f%%  (paper: 56%%)\n"
    (Ascii.section "Figure 8: LEAP vs Connors, averaged error distributions")
    (Ascii.percent d.leap_good) (Ascii.percent d.connors_good) d.improvement_pct

(* --- Figure 9 ------------------------------------------------------- *)

type fig9_row = { workload : string; real : int; identified : int; score : float }

let fig9 suites =
  List.map
    (fun s ->
      let real = Ormp_baselines.Lossless_stride.strongly_strided s.wu in
      let leap_found = Ormp_leap.Strides.strongly_strided s.leap in
      let leap_instrs = List.map fst leap_found in
      let hit = List.filter (fun (i, _) -> List.mem i leap_instrs) real in
      {
        workload = s.entry.Registry.name;
        real = List.length real;
        identified = List.length hit;
        score =
          (if real = [] then 1.0
           else float_of_int (List.length hit) /. float_of_int (List.length real));
      })
    suites

let render_fig9 rows =
  let avg = Stats.mean (List.map (fun r -> r.score) rows) in
  let chart =
    Ascii.bar_chart
      ~labels:(Array.of_list (List.map (fun r -> r.workload) rows))
      ~values:(Array.of_list (List.map (fun r -> 100.0 *. r.score) rows))
      ()
  in
  Printf.sprintf
    "%s\nPercent of strongly-strided instructions correctly identified by LEAP:\n%s\n\
     Average: %s  (paper: 88%%)\n"
    (Ascii.section "Figure 9: stride score for LEAP")
    chart (Ascii.percent avg)

(* --- Table 1 -------------------------------------------------------- *)

type table1_row = {
  workload : string;
  compression_ratio : float;
  dilation : float;
  accesses_captured : float;
  instructions_captured : float;
}

(* Bare runs are very fast, so time whole batches, doubling the batch
   size until one batch is comfortably above timer noise. (The wall clock
   has ns resolution, so the floor can be low — and wall time stays
   truthful when the harness runs other sections on sibling domains.) *)
let time_batch ~repeats run_once =
  let run_batch n =
    let t0 = Clock.now_s () in
    for _ = 1 to n do
      run_once ()
    done;
    Clock.now_s () -. t0
  in
  let rec go n =
    let t = run_batch n in
    if t >= 0.05 || n >= 512 then t /. float_of_int n else go (n * 2)
  in
  go repeats

let measure_dilation ?(bench = false) ~repeats entry =
  let program = Registry.program ~bench entry in
  let bare = time_batch ~repeats (fun () -> ignore (Ormp_vm.Runner.run_bare program)) in
  let instrumented =
    (* The batched fast path — the pipeline [Leap.profile] actually uses —
       so the dilation column reports production probe cost. *)
    time_batch ~repeats (fun () ->
        let b, fin = Ormp_leap.Leap.sink_batched ~site_name () in
        ignore (Ormp_vm.Runner.run_batched program b);
        ignore (fin ~elapsed:0.0))
  in
  if bare <= 0.0 then Float.nan else instrumented /. bare

let table1 ?(bench = false) ?(repeats = 3) suites =
  List.map
    (fun s ->
      {
        workload = s.entry.Registry.name;
        compression_ratio = Ormp_leap.Leap.compression_ratio s.leap;
        dilation = measure_dilation ~bench ~repeats s.entry;
        accesses_captured = Ormp_leap.Leap.accesses_captured s.leap;
        instructions_captured = Ormp_leap.Leap.instructions_captured s.leap;
      })
    suites

let render_table1 rows =
  let fmt_dil d = if Float.is_nan d then "n/a" else Ascii.ratio d in
  let avg f = Stats.mean (List.map f rows) in
  let body =
    List.map
      (fun r ->
        [
          r.workload;
          Ascii.ratio r.compression_ratio;
          fmt_dil r.dilation;
          Ascii.percent r.accesses_captured;
          Ascii.percent r.instructions_captured;
        ])
      rows
    @ [
        [
          "Average";
          Ascii.ratio (avg (fun r -> r.compression_ratio));
          fmt_dil (avg (fun r -> r.dilation));
          Ascii.percent (avg (fun r -> r.accesses_captured));
          Ascii.percent (avg (fun r -> r.instructions_captured));
        ];
      ]
  in
  Printf.sprintf "%s\n%s\n(paper averages: 3539x compression, 11.5x dilation, 46.5%% / 40.5%% sample quality)\n"
    (Ascii.section "Table 1: LEAP profile size, speed, and sample quality")
    (Ascii.table
       ~header:[ "benchmark"; "compression"; "dilation"; "accesses capt."; "instrs capt." ]
       ~rows:body)

(* --- Ablations ------------------------------------------------------ *)

type budget_row = {
  budget : int;
  accesses_captured_b : float;
  instructions_captured_b : float;
  profile_bytes : int;
  mdf_good : float;
}

let ablation_lmad_budget ?(bench = false) ?(budgets = [ 5; 10; 30; 100 ]) entry =
  let program = Registry.program ~bench entry in
  let truth = Ormp_baselines.Lossless_dep.profile program in
  let truth_deps = Ormp_baselines.Lossless_dep.deps truth in
  List.map
    (fun budget ->
      let p = Ormp_leap.Leap.profile ~budget program in
      let hist = Error_dist.of_deps ~truth:truth_deps ~estimate:(Ormp_leap.Mdf.compute p) in
      {
        budget;
        accesses_captured_b = Ormp_leap.Leap.accesses_captured p;
        instructions_captured_b = Ormp_leap.Leap.instructions_captured p;
        profile_bytes = Ormp_leap.Leap.byte_size p;
        mdf_good = Error_dist.good_fraction hist;
      })
    budgets

let render_budget ~workload rows =
  Printf.sprintf "%s\n%s\n"
    (Ascii.section (Printf.sprintf "Ablation: LMAD budget on %s (paper picks 30)" workload))
    (Ascii.table
       ~header:[ "budget"; "accesses capt."; "instrs capt."; "profile bytes"; "MDF good" ]
       ~rows:
         (List.map
            (fun r ->
              [
                string_of_int r.budget;
                Ascii.percent r.accesses_captured_b;
                Ascii.percent r.instructions_captured_b;
                string_of_int r.profile_bytes;
                Ascii.percent r.mdf_good;
              ])
            rows))

type window_row = { window : int; connors_good : float; pairs_found : int }

let ablation_connors_window ?(bench = false) ?(windows = [ 256; 1024; 4096; 16384; 65536 ]) entry =
  let program = Registry.program ~bench entry in
  let truth = Ormp_baselines.Lossless_dep.profile program in
  let truth_deps = Ormp_baselines.Lossless_dep.deps truth in
  List.map
    (fun window ->
      let c = Ormp_baselines.Connors.profile ~window program in
      let deps = Ormp_baselines.Connors.deps c in
      let hist = Error_dist.of_deps ~truth:truth_deps ~estimate:deps in
      { window; connors_good = Error_dist.good_fraction hist; pairs_found = List.length deps })
    windows

let render_window ~workload rows =
  Printf.sprintf "%s\n%s\n"
    (Ascii.section (Printf.sprintf "Ablation: Connors window size on %s" workload))
    (Ascii.table
       ~header:[ "window"; "MDF good"; "pairs found" ]
       ~rows:
         (List.map
            (fun r ->
              [ string_of_int r.window; Ascii.percent r.connors_good; string_of_int r.pairs_found ])
            rows))

type grouping_row = {
  workload_g : string;
  site_groups : int;
  type_groups : int;
  site_capture : float;
  type_capture : float;
  site_omsg_bytes : int;
  type_omsg_bytes : int;
}

let grouping_programs ?(bench = false) () =
  [
    ("micro.two_site_list", Ormp_workloads.Micro.two_site_list ());
    ("164.gzip-like", Registry.program ~bench (Registry.find "164.gzip-like"));
    ("197.parser-like", Registry.program ~bench (Registry.find "197.parser-like"));
  ]

let ablation_grouping ?bench () =
  List.map
    (fun (name, program) ->
      let measure grouping =
        let leap = Ormp_leap.Leap.profile ~grouping program in
        let whomp = Ormp_whomp.Whomp.profile ~grouping program in
        ( List.length whomp.Ormp_whomp.Whomp.groups,
          Ormp_leap.Leap.accesses_captured leap,
          Ormp_whomp.Whomp.omsg_bytes whomp )
      in
      let sg, sc, sb = measure `Site in
      let tg, tc, tb = measure `Type in
      {
        workload_g = name;
        site_groups = sg;
        type_groups = tg;
        site_capture = sc;
        type_capture = tc;
        site_omsg_bytes = sb;
        type_omsg_bytes = tb;
      })
    (grouping_programs ?bench ())

let render_grouping rows =
  Printf.sprintf "%s\n%s\n"
    (Ascii.section "Ablation: allocation-site vs type grouping (section 3.1)")
    (Ascii.table
       ~header:
         [
           "workload"; "site groups"; "type groups"; "site capture"; "type capture";
           "site OMSG"; "type OMSG";
         ]
       ~rows:
         (List.map
            (fun r ->
              [
                r.workload_g;
                string_of_int r.site_groups;
                string_of_int r.type_groups;
                Ascii.percent r.site_capture;
                Ascii.percent r.type_capture;
                string_of_int r.site_omsg_bytes;
                string_of_int r.type_omsg_bytes;
              ])
            rows))

type pool_row = {
  pool_mode : string;
  pool_groups : int;
  pool_objects : int;
  pool_capture : float;
  pool_profile_bytes : int;
  pool_mdf_good : float;
}

let ablation_pool_handling ?(bench = false) () =
  let scale =
    let e = Registry.find "197.parser-like" in
    if bench then e.Registry.bench_scale else e.Registry.default_scale
  in
  List.map
    (fun (mode, expose_pieces) ->
      let program = Ormp_workloads.Parser_like.program ~scale ~expose_pieces () in
      let leap_batch, leap_fin = Ormp_leap.Leap.sink_batched ~site_name () in
      let truth = Ormp_baselines.Lossless_dep.create () in
      let whomp_batch, whomp_fin = Ormp_whomp.Whomp.sink_batched ~site_name () in
      let result =
        Ormp_vm.Runner.run_batched program
          (Ormp_trace.Batch.fanout
             [ leap_batch; Ormp_baselines.Lossless_dep.batch truth; whomp_batch ])
      in
      let leap = leap_fin ~elapsed:result.Ormp_vm.Runner.elapsed in
      let whomp = whomp_fin ~elapsed:0.0 in
      let hist =
        Error_dist.of_deps
          ~truth:(Ormp_baselines.Lossless_dep.deps truth)
          ~estimate:(Ormp_leap.Mdf.compute leap)
      in
      {
        pool_mode = mode;
        pool_groups = List.length whomp.Ormp_whomp.Whomp.groups;
        pool_objects = List.length whomp.Ormp_whomp.Whomp.lifetimes;
        pool_capture = Ormp_leap.Leap.accesses_captured leap;
        pool_profile_bytes = Ormp_leap.Leap.byte_size leap;
        pool_mdf_good = Error_dist.good_fraction hist;
      })
    [ ("single object", false); ("exposed pieces", true) ]

let render_pool rows =
  Printf.sprintf "%s\n%s\n"
    (Ascii.section
       "Ablation: custom pool as one object vs exposed pieces (section 3.1 footnote), 197.parser-like")
    (Ascii.table
       ~header:[ "pool handling"; "groups"; "objects"; "capture"; "LEAP bytes"; "MDF good" ]
       ~rows:
         (List.map
            (fun r ->
              [
                r.pool_mode;
                string_of_int r.pool_groups;
                string_of_int r.pool_objects;
                Ascii.percent r.pool_capture;
                string_of_int r.pool_profile_bytes;
                Ascii.percent r.pool_mdf_good;
              ])
            rows))

type phase_row = {
  workload_p : string;
  n_phases : int;
  mono_capture : float;
  phased_capture : float;
}

(* Offset-stream capture when the LMAD budget is opened fresh for each
   index range: ranges = [whole run] gives the monolithic profiler,
   per-phase ranges the phase-cognizant one. *)
let capture_over_ranges tuples ranges =
  let captured = ref 0 and total = ref 0 in
  List.iter
    (fun (lo, hi) ->
      let streams = Hashtbl.create 64 in
      for i = lo to hi - 1 do
        let tu = tuples.(i) in
        let key = (tu.Ormp_core.Tuple.instr, tu.Ormp_core.Tuple.group) in
        let comp =
          match Hashtbl.find_opt streams key with
          | Some c -> c
          | None ->
            let c = Ormp_lmad.Compressor.create ~dims:1 () in
            Hashtbl.replace streams key c;
            c
        in
        ignore (Ormp_lmad.Compressor.add comp [| tu.Ormp_core.Tuple.offset |])
      done;
      Hashtbl.iter
        (fun _ c ->
          captured := !captured + Ormp_lmad.Compressor.captured c;
          total := !total + Ormp_lmad.Compressor.total c)
        streams)
    ranges;
  if !total = 0 then 0.0 else float_of_int !captured /. float_of_int !total

let extension_phases ?(bench = false) () =
  List.map
    (fun entry ->
      let c = Ormp_analysis.Collect.run (Registry.program ~bench entry) in
      let tuples = c.Ormp_analysis.Collect.tuples in
      let phases = Ormp_analysis.Phase.detect tuples in
      let per_phase =
        List.map
          (fun p -> (p.Ormp_analysis.Phase.start_time, p.Ormp_analysis.Phase.stop_time))
          phases
      in
      {
        workload_p = entry.Registry.name;
        n_phases = List.length phases;
        mono_capture = capture_over_ranges tuples [ (0, Array.length tuples) ];
        phased_capture = capture_over_ranges tuples per_phase;
      })
    Registry.spec

let render_phases rows =
  Printf.sprintf "%s\n%s\n"
    (Ascii.section "Extension: phase-cognizant profiling (section 6 future work)")
    (Ascii.table
       ~header:[ "benchmark"; "phases"; "monolithic capture"; "per-phase capture" ]
       ~rows:
         (List.map
            (fun r ->
              [
                r.workload_p;
                string_of_int r.n_phases;
                Ascii.percent r.mono_capture;
                Ascii.percent r.phased_capture;
              ])
            rows))

type fused_row = {
  workload_f : string;
  fused_bytes : int;
  omsg_bytes_f : int;
  decomposition_gain_pct : float;
}

let ablation_no_decomposition ?(bench = false) () =
  List.map
    (fun entry ->
      let program = Registry.program ~bench entry in
      (* Fused: one Sequitur over the interleaved 4-tuple stream. *)
      let fused = Ormp_sequitur.Sequitur.create () in
      let on_tuple (tu : Ormp_core.Tuple.t) =
        Ormp_sequitur.Sequitur.push fused tu.instr;
        Ormp_sequitur.Sequitur.push fused tu.group;
        Ormp_sequitur.Sequitur.push fused tu.obj;
        Ormp_sequitur.Sequitur.push fused tu.offset
      in
      let cdc = Ormp_core.Cdc.create ~site_name ~on_tuple () in
      ignore (Ormp_vm.Runner.run_batched program (Ormp_core.Cdc.batch cdc));
      let omsg = Ormp_whomp.Whomp.profile program in
      let fb = Ormp_sequitur.Sequitur.byte_size fused in
      let ob = Ormp_whomp.Whomp.omsg_bytes omsg in
      {
        workload_f = entry.Registry.name;
        fused_bytes = fb;
        omsg_bytes_f = ob;
        decomposition_gain_pct =
          (if fb = 0 then 0.0 else float_of_int (fb - ob) /. float_of_int fb);
      })
    Registry.spec

let render_fused rows =
  Printf.sprintf "%s\n%s\n"
    (Ascii.section "Ablation: horizontal decomposition vs fused tuple grammar")
    (Ascii.table
       ~header:[ "benchmark"; "fused bytes"; "OMSG bytes"; "decomposition gain" ]
       ~rows:
         (List.map
            (fun r ->
              [
                r.workload_f;
                string_of_int r.fused_bytes;
                string_of_int r.omsg_bytes_f;
                Ascii.percent r.decomposition_gain_pct;
              ])
            rows))
