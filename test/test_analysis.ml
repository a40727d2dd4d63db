open Ormp_analysis
open Ormp_vm
open Ormp_trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Collect                                                             *)
(* ------------------------------------------------------------------ *)

let list_prog = Ormp_workloads.Micro.linked_list ~nodes:16 ~sweeps:4 ()

let test_collect_basics () =
  let c = Collect.run list_prog in
  check_bool "tuples collected" true (Array.length c.Collect.tuples > 100);
  check_bool "lifetimes" true (List.length c.Collect.lifetimes >= 16);
  check_int "wild" 0 c.Collect.wild;
  check_int "node size" 16 (Collect.size_of c ~group:0 ~obj:0);
  check_bool "instr names resolve" true (String.length (Collect.instr_name c 0) > 0);
  (* time stamps are the array index *)
  Array.iteri (fun i tu -> check_int "time = index" i tu.Ormp_core.Tuple.time) c.Collect.tuples

(* ------------------------------------------------------------------ *)
(* Hot streams                                                         *)
(* ------------------------------------------------------------------ *)

let test_hot_streams_cycle () =
  let g = Ormp_sequitur.Sequitur.create () in
  (* (1 2 3 4) repeated 100 times: the hottest rule expands to a rotation
     of the cycle and is used ~100 times. *)
  for _ = 1 to 100 do
    List.iter (Ormp_sequitur.Sequitur.push g) [ 1; 2; 3; 4 ]
  done;
  match Hot_streams.of_grammar ~top:3 g with
  | [] -> Alcotest.fail "no hot streams"
  | hot :: _ ->
    check_bool "hot stream is hot" true (hot.Hot_streams.heat >= 100);
    check_bool "expansion within alphabet" true
      (Array.for_all (fun v -> v >= 1 && v <= 4) hot.Hot_streams.symbols)

let test_hot_streams_exclude_start_rule () =
  let g = Ormp_sequitur.Sequitur.create () in
  for _ = 1 to 50 do
    List.iter (Ormp_sequitur.Sequitur.push g) [ 7; 8 ]
  done;
  List.iter
    (fun h -> check_bool "start rule excluded" true (h.Hot_streams.rule <> 0))
    (Hot_streams.of_grammar g)

let test_hot_streams_uses_consistent () =
  (* The hottest rule's (uses * length) must never exceed the input length. *)
  let g = Ormp_sequitur.Sequitur.create () in
  let rng = Ormp_util.Prng.create ~seed:3 in
  for _ = 1 to 2000 do
    Ormp_sequitur.Sequitur.push g (Ormp_util.Prng.int rng 4)
  done;
  List.iter
    (fun h ->
      check_bool "heat bounded by input" true
        (h.Hot_streams.heat <= Ormp_sequitur.Sequitur.input_length g))
    (Hot_streams.of_grammar ~top:20 g)

let test_hot_streams_respects_min_length () =
  let g = Ormp_sequitur.Sequitur.create () in
  for _ = 1 to 30 do
    List.iter (Ormp_sequitur.Sequitur.push g) [ 1; 2; 1; 2; 3 ]
  done;
  List.iter
    (fun h ->
      check_bool "min length" true (Array.length h.Hot_streams.symbols >= 4))
    (Hot_streams.of_grammar ~min_length:4 g)

(* ------------------------------------------------------------------ *)
(* Clustering                                                          *)
(* ------------------------------------------------------------------ *)

(* Objects are used in fixed pairs (0,1), (2,3), ... but allocated with
   decoys between the partners, so a sequential layout splits partners
   across lines. *)
let paired_prog =
  Program.make ~name:"paired" ~description:"objects used in pairs" (fun e ->
      let site = Engine.instr e ~name:"p.alloc" Instr.Alloc_site in
      let decoy = Engine.instr e ~name:"p.decoy" Instr.Alloc_site in
      let ld = Engine.instr e ~name:"p.ld" Instr.Load in
      let rng = Engine.rng e in
      let objs =
        Array.init 32 (fun _ ->
            let o = Engine.alloc e ~site ~type_name:"obj" 32 in
            ignore (Engine.alloc e ~site:decoy ~type_name:"decoy" 96);
            o)
      in
      for _ = 1 to 100 do
        let pair = Ormp_util.Prng.int rng 16 in
        Engine.load e ~instr:ld objs.(2 * pair) 0;
        Engine.load e ~instr:ld objs.((2 * pair) + 1) 0
      done)

let test_clustering_finds_pairs () =
  let c = Collect.run paired_prog in
  let t = Clustering.analyze c ~group:0 in
  (match t.Clustering.affinities with
  | ((a, b), _) :: _ -> check_int "dominant affinity is a use-pair" 1 (abs (a - b))
  | [] -> Alcotest.fail "no affinities");
  (* partners should be adjacent in the proposed order *)
  let order = Array.of_list t.Clustering.order in
  let pos = Hashtbl.create 32 in
  Array.iteri (fun i s -> Hashtbl.replace pos s i) order;
  let adjacent = ref 0 in
  for pair = 0 to 15 do
    let pa = Hashtbl.find pos (2 * pair) and pb = Hashtbl.find pos ((2 * pair) + 1) in
    if abs (pa - pb) = 1 then incr adjacent
  done;
  check_bool "most partners adjacent" true (!adjacent >= 12)

let test_clustering_layout_improves_misses () =
  let c = Collect.run paired_prog in
  let t = Clustering.analyze c ~group:0 in
  let tiny_cache = { Ormp_cachesim.Cache.size_bytes = 512; line_bytes = 64; ways = 2 } in
  let before =
    Clustering.replay_miss_rate ~cache:tiny_cache c (Clustering.sequential_layout c)
  in
  let after =
    Clustering.replay_miss_rate ~cache:tiny_cache c (Clustering.clustered_layout c [ t ])
  in
  check_bool
    (Printf.sprintf "clustered layout reduces misses (%.3f -> %.3f)" before after)
    true (after < before)

let test_layouts_cover_all_objects () =
  let c = Collect.run paired_prog in
  let t = Clustering.analyze c ~group:0 in
  let check_layout name layout =
    List.iter
      (fun (l : Ormp_core.Omc.lifetime) ->
        check_bool
          (Printf.sprintf "%s covers g%d/o%d" name l.group l.serial)
          true
          (Hashtbl.mem layout (l.group, l.serial)))
      c.Collect.lifetimes
  in
  check_layout "sequential" (Clustering.sequential_layout c);
  check_layout "clustered" (Clustering.clustered_layout c [ t ])

(* ------------------------------------------------------------------ *)
(* Phase detection                                                     *)
(* ------------------------------------------------------------------ *)

(* Three clearly distinct phases: sweep object A, then B, then A again. *)
let phased_prog =
  Program.make ~name:"phased" ~description:"A-phase, B-phase, A-phase" (fun e ->
      let site_a = Engine.instr e ~name:"ph.alloc_a" Instr.Alloc_site in
      let site_b = Engine.instr e ~name:"ph.alloc_b" Instr.Alloc_site in
      let ld_a = Engine.instr e ~name:"ph.ld_a" Instr.Load in
      let ld_b = Engine.instr e ~name:"ph.ld_b" Instr.Load in
      let a = Engine.alloc e ~site:site_a (512 * 8) in
      let b = Engine.alloc e ~site:site_b (512 * 8) in
      let sweep ld o =
        for _ = 1 to 8 do
          for i = 0 to 511 do
            Engine.load e ~instr:ld o (i * 8)
          done
        done
      in
      sweep ld_a a;
      sweep ld_b b;
      sweep ld_a a)

let test_phase_detection () =
  let c = Collect.run phased_prog in
  let phases = Phase.detect ~window:512 c.Collect.tuples in
  check_int "three phases" 3 (List.length phases);
  (match phases with
  | [ p1; p2; p3 ] ->
    check_int "phase 1 dominated by group A" 0 (Phase.dominant_group p1);
    check_int "phase 2 dominated by group B" 1 (Phase.dominant_group p2);
    check_int "phase 3 dominated by group A" 0 (Phase.dominant_group p3);
    check_int "phases start at 0" 0 p1.Phase.start_time;
    check_int "phases abut (1-2)" p1.Phase.stop_time p2.Phase.start_time;
    check_int "phases abut (2-3)" p2.Phase.stop_time p3.Phase.start_time;
    check_int "phases end at stream end" (Array.length c.Collect.tuples) p3.Phase.stop_time
  | _ -> Alcotest.fail "expected exactly three phases")

let test_phase_stable_stream_is_one_phase () =
  let c = Collect.run list_prog in
  check_int "steady workload is one phase" 1
    (List.length (Phase.detect ~window:512 c.Collect.tuples))

let test_phase_empty () = check_int "empty" 0 (List.length (Phase.detect [||]))

let test_phase_threshold_sensitivity () =
  let c = Collect.run phased_prog in
  let strict = Phase.detect ~window:512 ~threshold:1.9 c.Collect.tuples in
  let lax = Phase.detect ~window:512 ~threshold:0.01 c.Collect.tuples in
  check_bool "strict threshold merges phases" true (List.length strict <= 3);
  check_bool "lax threshold splits at least as much" true
    (List.length lax >= List.length strict)

let test_clustering_single_object_group () =
  (* A group with one object can't cluster; the layout must still cover it. *)
  let c = Collect.run (Ormp_workloads.Micro.array_stride ~elems:16 ~sweeps:2 ()) in
  let t = Clustering.analyze c ~group:0 in
  check_int "one object in order" 1 (List.length t.Clustering.order);
  let layout = Clustering.clustered_layout c [ t ] in
  check_bool "covered" true (Hashtbl.mem layout (0, 0))

let test_hot_streams_on_workload_offsets () =
  (* The linked-list offset grammar's hottest stream must be the per-node
     field pattern (offsets 0 and 8). *)
  let p = Ormp_whomp.Whomp.profile (Ormp_workloads.Micro.linked_list ~nodes:16 ~sweeps:8 ()) in
  let g = List.assoc "offset" p.Ormp_whomp.Whomp.dims in
  match Hot_streams.of_grammar ~top:1 g with
  | [ h ] ->
    check_bool "hot stream over field offsets" true
      (Array.for_all (fun v -> v = 0 || v = 8) h.Hot_streams.symbols);
    check_bool "hot" true (h.Hot_streams.heat > 100)
  | _ -> Alcotest.fail "expected a hot stream" 

let prop_phases_partition =
  QCheck.Test.make ~name:"phases partition the stream" ~count:50
    QCheck.(pair (int_range 1 5) (int_range 100 2000))
    (fun (groups, n) ->
      let tuples =
        Array.init n (fun i ->
            {
              Ormp_core.Tuple.instr = 0;
              group = i * groups / n;
              obj = 0;
              offset = 0;
              time = i;
              is_store = false;
            })
      in
      let phases = Phase.detect ~window:64 tuples in
      match phases with
      | [] -> false
      | first :: _ ->
        let rec chained = function
          | [ last ] -> last.Phase.stop_time = n
          | a :: (b :: _ as rest) -> a.Phase.stop_time = b.Phase.start_time && chained rest
          | [] -> false
        in
        first.Phase.start_time = 0 && chained phases)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_analysis"
    [
      ("collect", [ tc "basics" test_collect_basics ]);
      ( "hot_streams",
        [
          tc "cycle" test_hot_streams_cycle;
          tc "start rule excluded" test_hot_streams_exclude_start_rule;
          tc "heat bounded" test_hot_streams_uses_consistent;
          tc "min length" test_hot_streams_respects_min_length;
          tc "workload offset grammar" test_hot_streams_on_workload_offsets;
        ] );
      ( "clustering",
        [
          tc "finds pairs" test_clustering_finds_pairs;
          tc "single-object group" test_clustering_single_object_group;
          tc "layout improves misses" test_clustering_layout_improves_misses;
          tc "layouts cover all objects" test_layouts_cover_all_objects;
        ] );
      ( "phase",
        [
          tc "three phases" test_phase_detection;
          tc "steady stream" test_phase_stable_stream_is_one_phase;
          tc "empty" test_phase_empty;
          tc "threshold sensitivity" test_phase_threshold_sensitivity;
          QCheck_alcotest.to_alcotest prop_phases_partition;
        ] );
    ]
