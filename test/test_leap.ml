open Ormp_leap
open Ormp_vm
open Ormp_trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A maximally regular workload: every stream is a handful of LMADs. *)
let strided = Ormp_workloads.Micro.array_stride ~elems:256 ~stride:8 ~sweeps:4 ()

(* ------------------------------------------------------------------ *)
(* Profile structure and sample quality                                *)
(* ------------------------------------------------------------------ *)

let test_profile_structure () =
  let p = Leap.profile strided in
  check_bool "streams exist" true (List.length p.Leap.streams > 0);
  check_bool "collected accesses" true (p.Leap.collected > 0);
  check_int "wild" 0 p.Leap.wild;
  let ld = List.filter (fun i -> not (Leap.is_store p i)) (Leap.instrs p) in
  let st = List.filter (Leap.is_store p) (Leap.instrs p) in
  check_bool "loads classified" true (ld = Leap.loads p);
  check_bool "stores classified" true (st = Leap.stores p)

let test_fully_regular_capture () =
  let p = Leap.profile strided in
  Alcotest.(check (float 1e-9)) "all accesses captured" 1.0 (Leap.accesses_captured p);
  Alcotest.(check (float 1e-9)) "all instructions captured" 1.0 (Leap.instructions_captured p)

let test_instr_totals_sum_to_collected () =
  let p = Leap.profile (Ormp_workloads.Micro.linked_list ()) in
  let sum = List.fold_left (fun acc i -> acc + Leap.instr_total p i) 0 (Leap.instrs p) in
  check_int "totals partition the collected stream" p.Leap.collected sum

let test_budget_reduces_capture () =
  let irregular = Ormp_workloads.Micro.hash_probe ~buckets:512 ~ops:2048 () in
  let p_small = Leap.profile ~budget:2 irregular in
  let p_big = Leap.profile ~budget:200 irregular in
  check_bool "bigger budget captures at least as much" true
    (Leap.accesses_captured p_big >= Leap.accesses_captured p_small);
  check_bool "irregular stream is lossy at small budget" true
    (Leap.accesses_captured p_small < 1.0)

let test_compression_ratio () =
  let p = Leap.profile strided in
  check_bool "well above 1x on regular streams" true (Leap.compression_ratio p > 10.0);
  check_bool "byte size positive" true (Leap.byte_size p > 0)

let test_spans_ordered () =
  let p = Leap.profile (Ormp_workloads.Micro.linked_list ()) in
  List.iter
    (fun (_, (s : Leap.stream)) ->
      Ormp_util.Vec.iter
        (fun (sp : Leap.span) ->
          check_bool "span ordered" true (sp.Leap.t_first <= sp.Leap.t_last))
        s.Leap.spans;
      check_int "one span per descriptor" (Ormp_util.Vec.length s.Leap.spans)
        (List.length (Ormp_lmad.Compressor.lmads s.Leap.comp)))
    p.Leap.streams

let test_object_relative_invariance () =
  (* The LEAP profile (a lossy object-relative profile) must also be
     invariant to allocator choice. *)
  let mk config = Leap.profile ~config (Ormp_workloads.Micro.linked_list ()) in
  let render p =
    List.map
      (fun (k, (s : Leap.stream)) ->
        ( k.Leap.instr,
          k.Leap.group,
          List.map (Format.asprintf "%a" Ormp_lmad.Lmad.pp)
            (Ormp_lmad.Compressor.lmads s.Leap.comp) ))
      p.Leap.streams
  in
  let base = render (mk Config.default) in
  List.iter
    (fun c -> check_bool "identical LMADs" true (render (mk c) = base))
    (Config.variants Config.default)

(* ------------------------------------------------------------------ *)
(* MDF post-processor                                                  *)
(* ------------------------------------------------------------------ *)

(* Hand-built program with an exactly-known dependence structure. *)
let raw_program ~n =
  Program.make ~name:"raw" ~description:"store array then load it twice" (fun e ->
      let site = Engine.instr e ~name:"r.alloc" Instr.Alloc_site in
      let st_a = Engine.instr e ~name:"r.st" Instr.Store in
      let ld_hit = Engine.instr e ~name:"r.ld_hit" Instr.Load in
      let ld_half = Engine.instr e ~name:"r.ld_half" Instr.Load in
      let ld_miss = Engine.instr e ~name:"r.ld_miss" Instr.Load in
      let a = Engine.alloc e ~site (2 * n * 8) in
      for i = 0 to n - 1 do
        Engine.store e ~instr:st_a a (i * 8)
      done;
      for i = 0 to n - 1 do
        (* reads exactly the stored range *)
        Engine.load e ~instr:ld_hit a (i * 8);
        (* reads stored range for even i, unwritten range for odd i *)
        Engine.load e ~instr:ld_half a (if i mod 2 = 0 then i * 8 else (n + i) * 8);
        (* reads only the unwritten half *)
        Engine.load e ~instr:ld_miss a ((n + i) * 8)
      done)

let find_deps p = Mdf.compute p

let test_mdf_exact_frequencies () =
  let p = Leap.profile (raw_program ~n:64) in
  let deps = find_deps p in
  (* instruction ids: 0 alloc, 1 st, 2 ld_hit, 3 ld_half, 4 ld_miss *)
  let f ld = Ormp_baselines.Dep_types.find deps ~store:1 ~load:ld in
  Alcotest.(check (float 0.01)) "full dependence" 1.0 (f 2);
  Alcotest.(check (float 0.01)) "half dependence" 0.5 (f 3);
  Alcotest.(check (float 0.01)) "no dependence" 0.0 (f 4)

let test_mdf_respects_time_order () =
  let prog =
    Program.make ~name:"rev" ~description:"load everything before any store" (fun e ->
        let site = Engine.instr e ~name:"v.alloc" Instr.Alloc_site in
        let ld = Engine.instr e ~name:"v.ld" Instr.Load in
        let st = Engine.instr e ~name:"v.st" Instr.Store in
        let a = Engine.alloc e ~site 512 in
        for i = 0 to 63 do
          Engine.load e ~instr:ld a (i * 8)
        done;
        for i = 0 to 63 do
          Engine.store e ~instr:st a (i * 8)
        done)
  in
  let deps = find_deps (Leap.profile prog) in
  Alcotest.(check (float 1e-9)) "no anti-dependence reported" 0.0
    (Ormp_baselines.Dep_types.find deps ~store:2 ~load:1)

let test_mdf_groups_do_not_alias () =
  let prog =
    Program.make ~name:"grp" ~description:"store one group, load another" (fun e ->
        let site_a = Engine.instr e ~name:"g.alloc_a" Instr.Alloc_site in
        let site_b = Engine.instr e ~name:"g.alloc_b" Instr.Alloc_site in
        let st = Engine.instr e ~name:"g.st" Instr.Store in
        let ld = Engine.instr e ~name:"g.ld" Instr.Load in
        let a = Engine.alloc e ~site:site_a 512 in
        let b = Engine.alloc e ~site:site_b 512 in
        for i = 0 to 63 do
          Engine.store e ~instr:st a (i * 8);
          Engine.load e ~instr:ld b (i * 8)
        done)
  in
  let deps = find_deps (Leap.profile prog) in
  check_int "no cross-group dependence" 0 (List.length deps)

let test_mdf_close_to_truth_on_suite () =
  (* Sanity bound on a real workload: on mostly-regular workloads most
     pairs should be within 25 points of the lossless truth. *)
  let program = raw_program ~n:128 in
  let truth = Ormp_baselines.Lossless_dep.profile program in
  let td = Ormp_baselines.Lossless_dep.deps truth in
  let ld = find_deps (Leap.profile program) in
  List.iter
    (fun (s, l) ->
      let e =
        Ormp_baselines.Dep_types.find ld ~store:s ~load:l
        -. Ormp_baselines.Dep_types.find td ~store:s ~load:l
      in
      check_bool "within 25 points" true (abs_float e <= 0.25))
    (Ormp_baselines.Dep_types.pairs [ td; ld ])

(* ------------------------------------------------------------------ *)
(* Stride post-processor                                               *)
(* ------------------------------------------------------------------ *)

let test_strides_on_strided_workload () =
  let p = Leap.profile strided in
  let strong = Strides.strongly_strided p in
  (* both the load and the store of the sweep are strided by 8 *)
  check_int "two strongly-strided instructions" 2 (List.length strong);
  List.iter (fun (_, s) -> check_int "stride is 8" 8 s) strong

let test_strides_none_on_random () =
  let p = Leap.profile (Ormp_workloads.Micro.hash_probe ~buckets:512 ~ops:2048 ()) in
  List.iter
    (fun (i, s) ->
      (* the only acceptable strong stride in a hash probe is the trivial
         re-probe stride 8 or 0; anything else is a detector bug *)
      check_bool (Printf.sprintf "instr %d stride %d plausible" i s) true (s = 8 || s = 0))
    (Strides.strongly_strided p)

let test_strides_threshold () =
  let p = Leap.profile strided in
  check_bool "lax threshold finds at least as many" true
    (List.length (Strides.strongly_strided ~threshold:0.1 p)
    >= List.length (Strides.strongly_strided ~threshold:0.9 p))

let test_stride_weights_visible () =
  let p = Leap.profile strided in
  let lds = Leap.loads p in
  check_bool "has loads" true (lds <> []);
  let w = Strides.stride_weights p (List.hd lds) in
  check_bool "weights non-empty" true (w <> []);
  check_bool "dominant weight is stride 8" true (fst (List.hd w) = 8)

let test_mdf_no_false_aliasing_across_reuse () =
  (* Store to an object, free it, allocate a new object at the SAME raw
     address, load from the new one: the raw-address baseline fabricates a
     dependence (address reuse), the object-relative profile correctly
     refuses it — the false-aliasing problem the paper contrasts with
     Rubin et al. *)
  let prog =
    Program.make ~name:"reuse" ~description:"store, free, realloc, load" (fun e ->
        let site = Engine.instr e ~name:"u.alloc" Instr.Alloc_site in
        let fsite = Engine.instr e ~name:"u.free" Instr.Free_site in
        let st = Engine.instr e ~name:"u.st" Instr.Store in
        let ld = Engine.instr e ~name:"u.ld" Instr.Load in
        for _ = 1 to 32 do
          let a = Engine.alloc e ~site 32 in
          Engine.store e ~instr:st a 0;
          Engine.free e ~site:fsite a;
          let b = Engine.alloc e ~site 32 in
          check_bool "first-fit reuses the address" true (Engine.addr b = Engine.addr a);
          Engine.load e ~instr:ld b 0;
          Engine.free e ~site:fsite b
        done)
  in
  let truth = Ormp_baselines.Lossless_dep.create () in
  let leap_batch, leap_fin = Leap.sink_batched ~site_name:(Printf.sprintf "s%d") () in
  let result =
    Runner.run_batched prog
      (Ormp_trace.Batch.fanout [ leap_batch; Ormp_baselines.Lossless_dep.batch truth ])
  in
  let leap = leap_fin ~elapsed:result.Runner.elapsed in
  (* ids: 0 alloc, 1 free, 2 st, 3 ld *)
  Alcotest.(check (float 1e-9))
    "raw baseline fabricates a 100% dependence" 1.0
    (Ormp_baselines.Dep_types.find (Ormp_baselines.Lossless_dep.deps truth) ~store:2 ~load:3);
  Alcotest.(check (float 1e-9))
    "object-relative profile refuses it" 0.0
    (Ormp_baselines.Dep_types.find (Mdf.compute leap) ~store:2 ~load:3)

let test_leap_on_churn_uses_serials () =
  (* Reused addresses must appear as fresh serials in the object dim. *)
  let p = Leap.profile (Ormp_workloads.Micro.churn ~live:4 ~ops:256 ()) in
  let max_serial =
    List.fold_left
      (fun acc (_, (s : Leap.stream)) ->
        List.fold_left
          (fun acc d ->
            List.fold_left (fun acc pt -> max acc pt.(0)) acc (Ormp_lmad.Lmad.points d))
          acc
          (Ormp_lmad.Compressor.lmads s.Leap.comp))
      0 p.Leap.streams
  in
  check_bool "serials exceed the live-slot count" true (max_serial >= 4)

(* ------------------------------------------------------------------ *)
(* Flat collector vs. legacy copy                                      *)
(* ------------------------------------------------------------------ *)

(* The PR 10 flat-arena collector against the verbatim pre-rewrite
   Hashtbl collector (leap_legacy.ml): identical tuple streams must give
   byte-identical profiles — through the persistence sexp, so stream
   order, LMADs, summaries, spans, store flags and dropped-key state are
   all covered — and identical post-processor output. The legacy copy
   shares the (independently proven) flat compressor, so these
   properties isolate the collection layer: key tables, admission order,
   caps, and checkpoint restore. *)

let profile_bytes = Ormp_util.Sexp.Writer.render Ormp_persist.Leap_io.write

(* Random tuple streams with enough regular structure to exercise every
   compressor arm: strided runs (one key sweeping offsets), plus random
   singles. [is_store] is a function of the instruction id and time is
   the stream position, as in a real collected trace. *)
let render_segs segs =
  let out = ref [] in
  let time = ref 0 in
  let push instr group obj offset =
    out :=
      { Ormp_core.Tuple.instr; group; obj; offset; time = !time; is_store = instr land 1 = 1 }
      :: !out;
    incr time
  in
  List.iter
    (fun seg ->
      match seg with
      | `Run (instr, group, obj, start, stride, count) ->
        for i = 0 to count - 1 do
          push instr group obj (start + (i * stride))
        done
      | `Rand l -> List.iter (fun (instr, group, obj, offset) -> push instr group obj offset) l)
    segs;
  Array.of_list (List.rev !out)

let gen_seg =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map
            (fun ((instr, group), (obj, start), (stride, count)) ->
              `Run (instr, group, obj, start, stride, count))
            (triple
               (pair (int_range 0 5) (int_range 0 3))
               (pair (int_range 0 3) (int_range 0 32))
               (pair (int_range 1 12) (int_range 2 24))) );
        ( 2,
          map
            (fun l -> `Rand l)
            (list_size (int_range 1 12)
               (quad (int_range 0 5) (int_range 0 3) (int_range 0 3) (int_range 0 64))) );
      ])

let print_segs segs =
  String.concat ";"
    (List.map
       (function
         | `Run (i, g, o, s, st, c) -> Printf.sprintf "run(%d,%d,%d,%d,%d,%d)" i g o s st c
         | `Rand l -> Printf.sprintf "rand(%d)" (List.length l))
       segs)

let arb_stream =
  QCheck.make ~print:print_segs QCheck.Gen.(list_size (int_range 1 16) gen_seg)

let arb_budget = QCheck.make QCheck.Gen.(opt (int_range 1 8))

let legacy_profile ?budget ?max_streams tuples =
  let c = Leap_legacy.collector ?budget ?max_streams () in
  Array.iter (Leap_legacy.collect c) tuples;
  Leap_legacy.finish c ~collected:(Array.length tuples) ~wild:0 ~elapsed:0.0

let finish_flat c tuples = Leap.finish c ~collected:(Array.length tuples) ~wild:0 ~elapsed:0.0

(* Post-processors on both profiles: MDF pairs and strides agree. *)
let post_eq ~ctx pa pb =
  QCheck.assume (pa.Leap.streams <> []);
  if Mdf.compute pa <> Mdf.compute pb then QCheck.Test.fail_reportf "%s: mdf differs" ctx;
  List.iter
    (fun i ->
      if Strides.stride_weights pa i <> Strides.stride_weights pb i then
        QCheck.Test.fail_reportf "%s: stride weights differ (instr %d)" ctx i)
    (Leap.instrs pa);
  if Strides.strongly_strided pa <> Strides.strongly_strided pb then
    QCheck.Test.fail_reportf "%s: strongly_strided differs" ctx;
  true

let eq_or_fail ~ctx pa pb =
  let a = profile_bytes pa and b = profile_bytes pb in
  if a <> b then QCheck.Test.fail_reportf "%s: profiles differ@.flat:   %s@.legacy: %s" ctx a b;
  true

(* Serial: per-tuple flat, lane-batched flat, and the legacy oracle all
   byte-identical; post-processors agree. *)
let prop_flat_eq_legacy =
  QCheck.Test.make ~name:"flat collector = legacy (serial + lanes)" ~count:120
    QCheck.(pair arb_stream arb_budget)
  @@ fun (segs, budget) ->
  let tuples = render_segs segs in
  let oracle = legacy_profile ?budget tuples in
  let c_serial = Leap.collector ?budget () in
  Array.iter (Leap.collect c_serial) tuples;
  let c_lanes = Leap.collector ?budget () in
  let n = Array.length tuples in
  let pos = ref 0 in
  while !pos < n do
    let len = min (1 + (!pos mod 7)) (n - !pos) in
    let sub f = Array.init len (fun i -> f tuples.(!pos + i)) in
    Leap.collect_lanes c_lanes
      ~instr:(sub (fun tu -> tu.Ormp_core.Tuple.instr))
      ~group:(sub (fun tu -> tu.Ormp_core.Tuple.group))
      ~obj:(sub (fun tu -> tu.Ormp_core.Tuple.obj))
      ~offset:(sub (fun tu -> tu.Ormp_core.Tuple.offset))
      ~store:(sub (fun tu -> if tu.Ormp_core.Tuple.is_store then 1 else 0))
      ~time0:!pos ~len;
    pos := !pos + len
  done;
  let pa = finish_flat c_serial tuples in
  let pl = finish_flat c_lanes tuples in
  eq_or_fail ~ctx:"serial" pa oracle
  && eq_or_fail ~ctx:"lanes" pl oracle
  && post_eq ~ctx:"post" pa oracle

(* A stream cap: admission refusals, dropped counts and established
   streams must match the legacy collector exactly. *)
let prop_capped_eq_legacy =
  QCheck.Test.make ~name:"max_streams cap = legacy" ~count:80
    QCheck.(triple arb_stream arb_budget (int_range 1 6))
  @@ fun (segs, budget, cap) ->
  let tuples = render_segs segs in
  let oracle = legacy_profile ?budget ~max_streams:cap tuples in
  let c = Leap.collector ?budget ~max_streams:cap () in
  Array.iter (Leap.collect c) tuples;
  let lva = Leap.live c in
  let lvb = Leap_legacy.live (let c = Leap_legacy.collector ?budget ~max_streams:cap () in
                              Array.iter (Leap_legacy.collect c) tuples;
                              c)
  in
  if lva.Leap.lv_dropped <> lvb.Leap.lv_dropped then
    QCheck.Test.fail_report "dropped key order differs";
  if lva.Leap.lv_dropped_accesses <> lvb.Leap.lv_dropped_accesses then
    QCheck.Test.fail_report "dropped access count differs";
  eq_or_fail ~ctx:"capped" (finish_flat c tuples) oracle

(* Checkpoint/restore mid-stream continues byte-for-byte like an
   uninterrupted run. *)
let prop_restore_eq_legacy =
  QCheck.Test.make ~name:"restore resumes like legacy" ~count:60
    QCheck.(triple arb_stream arb_budget (int_range 0 1000))
  @@ fun (segs, budget, cut_raw) ->
  let tuples = render_segs segs in
  let n = Array.length tuples in
  let cut = if n = 0 then 0 else cut_raw mod (n + 1) in
  let oracle = legacy_profile ?budget tuples in
  let c1 = Leap.collector ?budget () in
  Array.iteri (fun i tu -> if i < cut then Leap.collect c1 tu) tuples;
  let c2 = Leap.collector ?budget ~restore:(Leap.live c1) () in
  Array.iteri (fun i tu -> if i >= cut then Leap.collect c2 tu) tuples;
  eq_or_fail ~ctx:"restore" (finish_flat c2 tuples) oracle

(* Steady-state allocation witness: once streams exist and descriptors
   are extending, the collector allocates nothing per event. The 2-word
   budget in the issue covers the amortized cost of opening descriptors;
   the pure extension path must be flat zero. *)
let test_collect_lanes_alloc_free () =
  let c = Leap.collector () in
  let n = 4096 in
  let instr = Array.make n 3 in
  let group = Array.make n 1 in
  let obj = Array.make n 0 in
  let store = Array.make n 0 in
  let offset = Array.init n (fun i -> i * 8) in
  (* warm-up: admit the stream, open its descriptor, grow the tables *)
  Leap.collect_lanes c ~instr ~group ~obj ~offset ~store ~time0:0 ~len:n;
  let offset2 = Array.init n (fun i -> (n + i) * 8) in
  let w0 = Gc.minor_words () in
  Leap.collect_lanes c ~instr ~group ~obj ~offset:offset2 ~store ~time0:n ~len:n;
  let w1 = Gc.minor_words () in
  let per_event = (w1 -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state words/event %.4f <= 0.01" per_event)
    true (per_event <= 0.01)

(* Counted work: with telemetry on, the LEAP counters of a workload at
   test scale are exact functions of the code, pinned as [held_words] is
   (a change that moves one records the new figure and says why). The
   workloads reach every arm: two_site_list never discards a point, the
   stand-ins and churn discard thousands. Each run also times its tuple
   chunks into [leap.collect.ns], one sample per CDC chunk that holds
   tuples (so at most [cdc.chunks]), and writes the same profile bytes
   as a run with telemetry off. *)
let leap_work =
  (* workload, leap.streams_opened, leap.lmad.opened, leap.lmad.discarded *)
  [
    ("164.gzip-like", 11, 147, 34326);
    ("175.vpr-like", 8, 227, 34137);
    ("181.mcf-like", 12, 302, 55636);
    ("186.crafty-like", 8, 204, 12560);
    ("197.parser-like", 9, 85, 1307);
    ("256.bzip2-like", 10, 180, 61918);
    ("300.twolf-like", 9, 259, 33856);
    ("linked_list", 3, 3, 0);
    ("array_stride", 2, 2, 0);
    ("matrix", 3, 3, 0);
    ("binary_tree", 4, 90, 15508);
    ("hash_probe", 2, 60, 15986);
    ("random_walk", 2, 60, 16264);
    ("churn", 2, 60, 8068);
    ("two_site_list", 6, 6, 0);
  ]

let test_counted_work () =
  let module Tm = Ormp_telemetry.Telemetry in
  let bytes p =
    let f = Filename.temp_file "leap" ".profile" in
    Ormp_persist.Leap_io.save f p;
    let s = In_channel.with_open_bin f In_channel.input_all in
    Sys.remove f;
    s
  in
  List.iter
    (fun (name, streams, opened, discarded) ->
      let program = Result.get_ok (Ormp_session.Session.find_workload name) in
      let off = bytes (Leap.profile program) in
      Tm.reset ();
      Tm.enable ();
      let on = Fun.protect ~finally:Tm.disable (fun () -> bytes (Leap.profile program)) in
      let snap = Tm.Metrics.snapshot () in
      let counter k = Option.value ~default:0 (List.assoc_opt k snap.snap_counters) in
      check_int (name ^ " leap.streams_opened") streams (counter "leap.streams_opened");
      check_int (name ^ " leap.lmad.opened") opened (counter "leap.lmad.opened");
      check_int (name ^ " leap.lmad.discarded") discarded (counter "leap.lmad.discarded");
      let samples =
        match List.assoc_opt "leap.collect.ns" snap.snap_hists with
        | Some h -> h.count
        | None -> 0
      in
      check_bool
        (Printf.sprintf "%s: 0 < %d leap.collect.ns samples <= %d chunks" name samples
           (counter "cdc.chunks"))
        true
        (samples > 0 && samples <= counter "cdc.chunks");
      check_bool (name ^ " profile bytes with telemetry on") true (String.equal off on))
    leap_work

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ormp_leap"
    [
      ( "flat vs legacy",
        [
          qt prop_flat_eq_legacy;
          qt prop_capped_eq_legacy;
          qt prop_restore_eq_legacy;
          tc "steady-state collection is allocation-free" test_collect_lanes_alloc_free;
        ] );
      ( "profile",
        [
          tc "structure" test_profile_structure;
          tc "fully regular capture" test_fully_regular_capture;
          tc "instr totals partition" test_instr_totals_sum_to_collected;
          tc "budget reduces capture" test_budget_reduces_capture;
          tc "compression ratio" test_compression_ratio;
          tc "spans ordered" test_spans_ordered;
          tc "object-relative invariance" test_object_relative_invariance;
          tc "counted work on every workload" test_counted_work;
        ] );
      ( "mdf",
        [
          tc "exact frequencies" test_mdf_exact_frequencies;
          tc "respects time order" test_mdf_respects_time_order;
          tc "groups do not alias" test_mdf_groups_do_not_alias;
          tc "close to truth" test_mdf_close_to_truth_on_suite;
          tc "no false aliasing across address reuse" test_mdf_no_false_aliasing_across_reuse;
          tc "churn uses serials" test_leap_on_churn_uses_serials;
        ] );
      ( "strides",
        [
          tc "strided workload" test_strides_on_strided_workload;
          tc "random workload" test_strides_none_on_random;
          tc "threshold monotone" test_strides_threshold;
          tc "weights visible" test_stride_weights_visible;
        ] );
    ]
