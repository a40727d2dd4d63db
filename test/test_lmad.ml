open Ormp_lmad

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let lv stride count = { Lmad.stride; count }

(* ------------------------------------------------------------------ *)
(* Lmad model                                                          *)
(* ------------------------------------------------------------------ *)

let test_make () =
  let d = Lmad.make [| 3; 5 |] in
  check_int "size" 1 (Lmad.size d);
  check_int "dims" 2 (Lmad.dims d);
  check_int "depth" 0 (Lmad.depth d);
  Alcotest.(check (array int)) "point 0" [| 3; 5 |] (Lmad.point d 0)

let test_one_level () =
  let d = Lmad.of_levels ~start:[| 0 |] ~levels:[ lv [| 8 |] 4 ] in
  check_int "size" 4 (Lmad.size d);
  Alcotest.(check (list (array int)))
    "points" [ [| 0 |]; [| 8 |]; [| 16 |]; [| 24 |] ] (Lmad.points d);
  Alcotest.(check (array int)) "last" [| 24 |] (Lmad.last d)

let test_two_levels () =
  (* inner: 3 points stepping 8; outer: 2 rows stepping 100 *)
  let d = Lmad.of_levels ~start:[| 0 |] ~levels:[ lv [| 8 |] 3; lv [| 100 |] 2 ] in
  check_int "size" 6 (Lmad.size d);
  Alcotest.(check (list (array int)))
    "loop order (inner fastest)"
    [ [| 0 |]; [| 8 |]; [| 16 |]; [| 100 |]; [| 108 |]; [| 116 |] ]
    (Lmad.points d)

let test_redundant_levels_dropped () =
  let d = Lmad.of_levels ~start:[| 0 |] ~levels:[ lv [| 8 |] 1; lv [| 4 |] 3 ] in
  check_int "depth" 1 (Lmad.depth d);
  check_int "size" 3 (Lmad.size d)

let test_of_levels_validation () =
  check_bool "dim mismatch" true
    (try
       ignore (Lmad.of_levels ~start:[| 0 |] ~levels:[ lv [| 1; 2 |] 2 ]);
       false
     with Invalid_argument _ -> true);
  check_bool "zero count" true
    (try
       ignore (Lmad.of_levels ~start:[| 0 |] ~levels:[ lv [| 1 |] 0 ]);
       false
     with Invalid_argument _ -> true)

let test_point_bounds () =
  let d = Lmad.make [| 0 |] in
  check_bool "negative rejected" true
    (try
       ignore (Lmad.point d (-1));
       false
     with Invalid_argument _ -> true);
  check_bool "past end rejected" true
    (try
       ignore (Lmad.point d 1);
       false
     with Invalid_argument _ -> true)

let test_pp () =
  let d = Lmad.of_levels ~start:[| 0 |] ~levels:[ lv [| 8 |] 2 ] in
  Alcotest.(check string) "render" "[(0) +(8)x2]" (Format.asprintf "%a" Lmad.pp d)

(* ------------------------------------------------------------------ *)
(* Compressor                                                          *)
(* ------------------------------------------------------------------ *)

let feed ?(budget = 30) ?max_depth ~dims pts =
  let c = Compressor.create ~budget ?max_depth ~dims () in
  List.iter (fun p -> ignore (Compressor.add c p)) pts;
  c

let test_compress_linear_stream () =
  let pts = List.init 100 (fun i -> [| i * 8 |]) in
  let c = feed ~dims:1 pts in
  check_int "one LMAD" 1 (List.length (Compressor.lmads c));
  check_bool "fully captured" true (Compressor.fully_captured c);
  check_int "captured" 100 (Compressor.captured c);
  Alcotest.(check (list (array int))) "reconstruct" pts (Compressor.reconstruct c)

let test_compress_two_phases () =
  (* The paper's own example offset stream: 0 4 8 12 16 20 2 5 8 11
     becomes [0,4,6] and [2,3,4]. *)
  let pts = List.map (fun x -> [| x |]) [ 0; 4; 8; 12; 16; 20; 2; 5; 8; 11 ] in
  let c = feed ~max_depth:1 ~dims:1 pts in
  match Compressor.lmads c with
  | [ a; b ] ->
    Alcotest.(check (list (array int)))
      "first = [0,4,6]"
      (List.map (fun x -> [| x |]) [ 0; 4; 8; 12; 16; 20 ])
      (Lmad.points a);
    Alcotest.(check (list (array int)))
      "second = [2,3,4]"
      (List.map (fun x -> [| x |]) [ 2; 5; 8; 11 ])
      (Lmad.points b)
  | l -> Alcotest.failf "expected 2 LMADs, got %d" (List.length l)

let test_nested_sweep_single_descriptor () =
  (* 50 sweeps over an 8-slot row: one 2-level LMAD, not 50 descriptors. *)
  let pts = List.init 400 (fun i -> [| i mod 8 * 8 |]) in
  let c = feed ~dims:1 pts in
  check_bool "fully captured" true (Compressor.fully_captured c);
  check_int "one descriptor" 1 (List.length (Compressor.lmads c));
  let d = List.hd (Compressor.lmads c) in
  check_int "depth 2" 2 (Lmad.depth d);
  Alcotest.(check (list (array int))) "reconstruct" pts (Compressor.reconstruct c)

let test_nested_matrix_walk () =
  (* Walk 5 columns in each of 6 non-contiguous rows (row pitch 100 <> 5*8,
     so the row jump cannot merge into the column level), repeated 4 times:
     3 levels. *)
  let pts =
    List.concat
      (List.init 4 (fun _ ->
           List.concat
             (List.init 6 (fun r -> List.init 5 (fun col -> [| (r * 100) + (col * 8) |])))))
  in
  let c = feed ~dims:1 pts in
  check_bool "fully captured" true (Compressor.fully_captured c);
  check_int "one descriptor" 1 (List.length (Compressor.lmads c));
  check_int "depth 3" 3 (Lmad.depth (List.hd (Compressor.lmads c)));
  Alcotest.(check (list (array int))) "reconstruct" pts (Compressor.reconstruct c)

let test_max_depth_respected () =
  let pts = List.init 400 (fun i -> [| i mod 8 * 8 |]) in
  let c = feed ~max_depth:1 ~dims:1 pts in
  List.iter (fun d -> check_bool "depth <= 1" true (Lmad.depth d <= 1)) (Compressor.lmads c)

let test_budget_overflow () =
  (* Quadratic stream: strides never repeat, overflowing a tiny budget. *)
  let pts = List.init 50 (fun i -> [| i * i * 16 |]) in
  let c = feed ~budget:5 ~max_depth:1 ~dims:1 pts in
  check_int "budget respected" 5 (List.length (Compressor.lmads c));
  check_bool "lossy" false (Compressor.fully_captured c);
  check_int "accounting" 50 (Compressor.captured c + Compressor.discarded c);
  match Compressor.summary c with
  | None -> Alcotest.fail "expected summary"
  | Some s ->
    check_int "discarded recorded" (Compressor.discarded c) s.Compressor.discarded;
    check_bool "min <= max" true (s.Compressor.min_v.(0) <= s.Compressor.max_v.(0))

let test_summary_granularity () =
  let c = Compressor.create ~budget:1 ~max_depth:1 ~dims:1 () in
  List.iter
    (fun p -> ignore (Compressor.add c p))
    [ [| 0 |]; [| 8 |]; [| 100 |]; [| 124 |]; [| 88 |] ];
  match Compressor.summary c with
  | None -> Alcotest.fail "expected summary"
  | Some s ->
    check_int "discarded" 3 s.Compressor.discarded;
    check_int "granularity divides deltas" 0 (24 mod s.Compressor.granularity.(0));
    check_int "min" 88 s.Compressor.min_v.(0);
    check_int "max" 124 s.Compressor.max_v.(0)

let test_multidim_stream () =
  (* (object, offset) stream of a strided walk over 3 objects. *)
  let pts = List.init 30 (fun i -> [| i / 10; i mod 10 * 4 |]) in
  let c = feed ~dims:2 pts in
  check_bool "fully captured" true (Compressor.fully_captured c);
  check_bool "few descriptors" true (List.length (Compressor.lmads c) <= 3);
  Alcotest.(check (list (array int))) "reconstruct" pts (Compressor.reconstruct c)

let test_placement_reporting () =
  let c = Compressor.create ~budget:2 ~max_depth:1 ~dims:1 () in
  check_bool "first opens 0" true (Compressor.add c [| 0 |] = Compressor.Opened 0);
  check_bool "second extends 0" true (Compressor.add c [| 8 |] = Compressor.Extended 0);
  check_bool "break opens 1" true (Compressor.add c [| 100 |] = Compressor.Opened 1);
  check_bool "extends 1" true (Compressor.add c [| 109 |] = Compressor.Extended 1);
  check_bool "budget full discards" true (Compressor.add c [| 5000 |] = Compressor.Discarded)

let test_create_validation () =
  check_bool "dims 0 rejected" true
    (try
       ignore (Compressor.create ~dims:0 ());
       false
     with Invalid_argument _ -> true);
  check_bool "budget 0 rejected" true
    (try
       ignore (Compressor.create ~budget:0 ~dims:1 ());
       false
     with Invalid_argument _ -> true)

(* A snapshot's open descriptor stands mid-way through an outer
   iteration: at least one iteration done, and fewer points of the next
   than the inner pattern holds. *)
let test_of_state_open_position () =
  let c = Compressor.create ~dims:1 () in
  (* Three sweeps of a 4-point inner pattern, then 2 points of the next. *)
  List.iter
    (fun p -> ignore (Compressor.add c [| p |]))
    [ 0; 1; 2; 3; 0; 1; 2; 3; 0; 1; 2; 3; 0; 1 ];
  let st = Compressor.state c in
  let os = Option.get st.Compressor.s_current in
  check_int "partial" 2 os.Compressor.s_partial;
  let refused os =
    match Compressor.of_state { st with Compressor.s_current = Some os } with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "the state itself restores" false (refused os);
  check_bool "partial at the inner size" true (refused { os with Compressor.s_partial = 4 });
  check_bool "negative partial" true (refused { os with Compressor.s_partial = -1 });
  check_bool "no outer iteration done" true (refused { os with Compressor.s_top_done = 0 })

let prop_roundtrip_when_captured =
  QCheck.Test.make ~name:"reconstruct = input when fully captured" ~count:500
    QCheck.(list_of_size Gen.(int_range 0 80) (int_range (-20) 20))
    (fun xs ->
      let pts = List.map (fun x -> [| x |]) xs in
      let c = feed ~budget:200 ~dims:1 pts in
      (not (Compressor.fully_captured c)) || Compressor.reconstruct c = pts)

let prop_roundtrip_always_prefix_free =
  (* Even with a tight budget, captured points must be a subsequence of the
     input: LMAD capture never invents points. *)
  QCheck.Test.make ~name:"reconstruction is a subsequence of the input" ~count:300
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(int_range 0 60) (int_range 0 10)))
    (fun (budget, xs) ->
      let pts = List.map (fun x -> [| x |]) xs in
      let c = feed ~budget ~dims:1 pts in
      let rec is_subseq sub full =
        match (sub, full) with
        | [], _ -> true
        | _, [] -> false
        | s :: sub', f :: full' -> if s = f then is_subseq sub' full' else is_subseq sub full'
      in
      is_subseq (Compressor.reconstruct c) pts)

let prop_accounting =
  QCheck.Test.make ~name:"captured + discarded = total" ~count:300
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 0 80) (int_range (-20) 20)))
    (fun (budget, xs) ->
      let pts = List.map (fun x -> [| x |]) xs in
      let c = feed ~budget ~dims:1 pts in
      Compressor.captured c + Compressor.discarded c = Compressor.total c
      && Compressor.total c = List.length xs
      && List.length (Compressor.lmads c) <= budget)

let prop_nested_ramps_fit_one_descriptor =
  QCheck.Test.make ~name:"periodic ramps compress to O(1) descriptors" ~count:200
    QCheck.(triple (int_range 2 9) (int_range 2 20) (int_range 1 8))
    (fun (row, reps, stride) ->
      let pts = List.init (row * reps) (fun i -> [| i mod row * stride |]) in
      let c = feed ~dims:1 pts in
      Compressor.fully_captured c && List.length (Compressor.lmads c) <= 2)

(* ------------------------------------------------------------------ *)
(* Flat compressor vs. legacy copy                                     *)
(* ------------------------------------------------------------------ *)

(* The PR-10 compressor keeps derived caches (expected next point, digit
   vector) so the extend/discard steady states are allocation-free;
   [Compressor_legacy] is the verbatim pre-cache implementation. Every
   observable — placement sequence, descriptors, summary, reconstruction,
   exact state — must agree on any stream, and the scalar entry points
   must agree with [add]. *)

(* Streams with enough structure to exercise extend, deepen, close-and-
   retry (with leftover replay) and over-budget discard: a list of
   segments, each a strided run, a two-level nest, or raw noise. *)
let gen_stream ~dims =
  QCheck.Gen.(
    let point g = array_repeat dims g in
    let seg =
      frequency
        [
          ( 4,
            (* strided run: start + i * stride *)
            triple (point (int_range (-50) 50)) (point (int_range (-6) 6)) (int_range 1 12)
            >|= fun (s, d, n) ->
            List.init n (fun i -> Array.mapi (fun k sk -> sk + (i * d.(k))) s) );
          ( 2,
            (* two-level nest: start + o * outer + i * inner *)
            quad
              (point (int_range 0 40))
              (point (int_range 1 4))
              (point (int_range 0 60))
              (pair (int_range 2 4) (int_range 2 4))
            >|= fun (s, di, d_o, (ic, oc)) ->
            List.concat
              (List.init oc (fun o ->
                   List.init ic (fun i ->
                       Array.mapi (fun k sk -> sk + (o * d_o.(k)) + (i * di.(k))) s))) );
          (2, list_size (int_range 1 6) (point (int_range (-40) 40)));
        ]
    in
    list_size (int_range 0 8) seg >|= List.concat)

let arb_stream ~dims =
  QCheck.make ~print:QCheck.Print.(list (array int)) (gen_stream ~dims)

let placements c_add pts =
  List.map c_add pts

let summary_eq c l =
  match (Compressor.summary c, Compressor_legacy.summary l) with
  | None, None -> true
  | Some a, Some b ->
    a.Compressor.min_v = b.Compressor_legacy.min_v
    && a.Compressor.max_v = b.Compressor_legacy.max_v
    && a.Compressor.granularity = b.Compressor_legacy.granularity
    && a.Compressor.discarded = b.Compressor_legacy.discarded
  | _ -> false

let legacy_same ~budget ~dims pts =
  let c = Compressor.create ~budget ~dims () in
  let l = Compressor_legacy.create ~budget ~dims () in
  let pl = placements (Compressor.add c) pts in
  let ll = placements (Compressor_legacy.add l) pts in
  let placement_eq =
    List.for_all2
      (fun a b ->
        match (a, b) with
        | Compressor.Extended i, Compressor_legacy.Extended j -> i = j
        | Compressor.Opened i, Compressor_legacy.Opened j -> i = j
        | Compressor.Discarded, Compressor_legacy.Discarded -> true
        | _ -> false)
      pl ll
  in
  placement_eq
  && Compressor.lmads c = Compressor_legacy.lmads l
  && Compressor.total c = Compressor_legacy.total l
  && Compressor.discarded c = Compressor_legacy.discarded l
  && Compressor.reconstruct c = Compressor_legacy.reconstruct l
  && summary_eq c l

let prop_flat_eq_legacy_1d =
  QCheck.Test.make ~name:"flat = legacy (1d, tight budget)" ~count:400
    (QCheck.pair (QCheck.int_range 1 6) (arb_stream ~dims:1))
    (fun (budget, pts) -> legacy_same ~budget ~dims:1 pts)

let prop_flat_eq_legacy_2d =
  QCheck.Test.make ~name:"flat = legacy (2d)" ~count:400
    (QCheck.pair (QCheck.int_range 1 8) (arb_stream ~dims:2))
    (fun (budget, pts) -> legacy_same ~budget ~dims:2 pts)

(* The scalar entry points must report exactly where [add] put the point:
   its descriptor's index, or -1 for a discard. *)
let prop_code_eq_add =
  QCheck.Test.make ~name:"add2_code/add1_code = add" ~count:400
    (QCheck.pair (QCheck.int_range 1 6) (arb_stream ~dims:2))
    (fun (budget, pts) ->
      let ca = Compressor.create ~budget ~dims:2 () in
      let cc = Compressor.create ~budget ~dims:2 () in
      let c1a = Compressor.create ~budget ~dims:1 () in
      let c1c = Compressor.create ~budget ~dims:1 () in
      List.for_all
        (fun p ->
          let index_matches placement i =
            match placement with
            | Compressor.Extended j | Compressor.Opened j -> i = j
            | Compressor.Discarded -> i = -1
          in
          index_matches (Compressor.add ca p) (Compressor.add2_code cc p.(0) p.(1))
          && index_matches
               (Compressor.add c1a [| p.(0) |])
               (Compressor.add1_code c1c p.(0)))
        pts
      && Compressor.lmads ca = Compressor.lmads cc
      && Compressor.reconstruct c1a = Compressor.reconstruct c1c)

(* The discard arms fold the summary's granularity with a [gcd_step]
   whose mask test answers, with no division, for a power-of-two running
   gcd that divides the step; the legacy compressor folds with
   [Stats.gcd]. Under a budget of one, the stream [0; 1; -5] closes the
   only descriptor, so every later point is discarded. Its steps are
   drawn three ways: edge values, where the mask test could go wrong (0,
   +-1, powers of two and their negations, [min_int], [max_int]); random
   values; and a power of two followed by multiples of it, the case the
   mask test answers. [add], [add2_code] and [add1_code] must all keep
   the legacy summary. *)
let gcd_edges =
  [ 0; 1; -1; 3; -6; min_int; min_int + 1; max_int; max_int - 1 ]
  @ List.concat_map (fun k -> [ 1 lsl k; -(1 lsl k); (1 lsl k) + 1 ]) [ 1; 2; 3; 5; 12; 31; 40; 61 ]

let prop_discard_gcd_eq_legacy =
  let open QCheck.Gen in
  let edge = oneofl gcd_edges in
  let steps step = list_size (int_range 1 12) (pair step step) in
  let pow2_multiples =
    int_range 0 61 >>= fun k ->
    let g = 1 lsl k in
    steps (oneof [ small_signed_int; int; edge ] >|= fun m -> m * g) >|= List.cons (g, g)
  in
  QCheck.Test.make ~name:"discard gcd over edge steps = legacy" ~count:3000
    (QCheck.make ~print:QCheck.Print.(list (pair int int))
       (oneof [ steps edge; steps int; steps (oneof [ edge; small_signed_int ]); pow2_multiples ]))
    (fun steps ->
      let pts =
        List.rev
          (List.fold_left
             (fun acc (da, db) ->
               match acc with p :: _ -> [| p.(0) + da; p.(1) + db |] :: acc | [] -> assert false)
             [ [| -5; -5 |]; [| 1; 1 |]; [| 0; 0 |] ]
             steps)
      in
      let c = Compressor.create ~budget:1 ~dims:2 () in
      let c2 = Compressor.create ~budget:1 ~dims:2 () in
      let c1 = Compressor.create ~budget:1 ~dims:1 () in
      let l = Compressor_legacy.create ~budget:1 ~dims:2 () in
      let l1 = Compressor_legacy.create ~budget:1 ~dims:1 () in
      List.iter
        (fun p ->
          ignore (Compressor.add c p);
          ignore (Compressor.add2_code c2 p.(0) p.(1));
          ignore (Compressor.add1_code c1 p.(0));
          ignore (Compressor_legacy.add l p);
          ignore (Compressor_legacy.add l1 [| p.(0) |]))
        pts;
      Compressor.discarded c = List.length steps + 1
      && summary_eq c l && summary_eq c2 l && summary_eq c1 l1)

(* Mid-stream checkpoint/resume must not disturb the caches: restore from
   [state] at an arbitrary split, finish the stream, compare to an
   uninterrupted run and to legacy. *)
let prop_state_resume_eq =
  QCheck.Test.make ~name:"flat of_state resumes like legacy" ~count:300
    (QCheck.triple (QCheck.int_range 1 6) QCheck.small_nat (arb_stream ~dims:2))
    (fun (budget, cut0, pts) ->
      let n = List.length pts in
      let cut = if n = 0 then 0 else cut0 mod (n + 1) in
      let prefix = List.filteri (fun i _ -> i < cut) pts in
      let suffix = List.filteri (fun i _ -> i >= cut) pts in
      let c = Compressor.create ~budget ~dims:2 () in
      List.iter (fun p -> ignore (Compressor.add c p)) prefix;
      let c' = Compressor.of_state (Compressor.state c) in
      List.iter (fun p -> ignore (Compressor.add c' p)) suffix;
      let l = Compressor_legacy.create ~budget ~dims:2 () in
      List.iter (fun p -> ignore (Compressor_legacy.add l p)) pts;
      Compressor.lmads c' = Compressor_legacy.lmads l
      && Compressor.reconstruct c' = Compressor_legacy.reconstruct l
      && Compressor.discarded c' = Compressor_legacy.discarded l)

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

(* Brute-force references over enumerated points. *)
let brute_matches ~store ~load =
  let stores = Lmad.points store in
  List.length
    (List.filter (fun lp -> List.exists (fun sp -> sp = lp) stores) (Lmad.points load))

let brute_conflicts ~store ~load =
  let n = Lmad.dims load in
  let loc p = Array.sub p 0 (n - 1) in
  let time p = p.(n - 1) in
  let stores = Lmad.points store in
  List.length
    (List.filter
       (fun lp -> List.exists (fun sp -> loc sp = loc lp && time sp < time lp) stores)
       (Lmad.points load))

let mk ~start ~stride ~count = Lmad.of_levels ~start ~levels:[ lv stride count ]

let test_solver_simple_raw () =
  (* Store writes offsets 0..9 (x8) at times 0..9; load reads the same
     offsets at times 10..19: every load iteration conflicts. *)
  let store = mk ~start:[| 0; 0 |] ~stride:[| 8; 1 |] ~count:10 in
  let load = mk ~start:[| 0; 10 |] ~stride:[| 8; 1 |] ~count:10 in
  check_int "all conflict" 10 (Solver.count_conflicts ~store ~load);
  check_int "matches brute force" (brute_conflicts ~store ~load)
    (Solver.count_conflicts ~store ~load)

let test_solver_no_overlap () =
  let store = mk ~start:[| 0; 0 |] ~stride:[| 8; 1 |] ~count:10 in
  let load = mk ~start:[| 4; 10 |] ~stride:[| 8; 1 |] ~count:10 in
  check_int "disjoint lattices" 0 (Solver.count_conflicts ~store ~load)

let test_solver_time_order () =
  (* Same locations but load runs before the store: no RAW conflicts. *)
  let store = mk ~start:[| 0; 100 |] ~stride:[| 8; 1 |] ~count:10 in
  let load = mk ~start:[| 0; 0 |] ~stride:[| 8; 1 |] ~count:10 in
  check_int "load precedes store" 0 (Solver.count_conflicts ~store ~load)

let test_solver_interleaved_time () =
  let store = mk ~start:[| 0; 0 |] ~stride:[| 0; 2 |] ~count:5 in
  let load = mk ~start:[| 0; 1 |] ~stride:[| 0; 2 |] ~count:5 in
  check_int "fixed location" 5 (Solver.count_conflicts ~store ~load);
  check_int "matches brute force" (brute_conflicts ~store ~load)
    (Solver.count_conflicts ~store ~load)

let test_solver_different_strides () =
  let store = mk ~start:[| 0; 0 |] ~stride:[| 4; 1 |] ~count:30 in
  let load = mk ~start:[| 0; 100 |] ~stride:[| 6; 1 |] ~count:20 in
  check_int "matches brute force" (brute_conflicts ~store ~load)
    (Solver.count_conflicts ~store ~load)

let test_solver_single_points () =
  let store = mk ~start:[| 16; 3 |] ~stride:[| 0; 0 |] ~count:1 in
  let load_hit = mk ~start:[| 16; 7 |] ~stride:[| 0; 0 |] ~count:1 in
  let load_miss = mk ~start:[| 24; 7 |] ~stride:[| 0; 0 |] ~count:1 in
  check_int "hit" 1 (Solver.count_conflicts ~store ~load:load_hit);
  check_int "miss" 0 (Solver.count_conflicts ~store ~load:load_miss)

let test_matches_multiplicity () =
  (* Load sweeps the same 4 offsets 10 times (outer level moves nothing in
     location space): each of the 40 iterations matches. *)
  let store = Lmad.of_levels ~start:[| 0; 0 |] ~levels:[ lv [| 0; 8 |] 4 ] in
  let load = Lmad.of_levels ~start:[| 0; 0 |] ~levels:[ lv [| 0; 8 |] 4; lv [| 0; 0 |] 10 ] in
  check_int "multiplicity counted" 40 (Solver.count_matches ~store ~load)

let test_matches_nested_exact () =
  (* 2-level lattices with partial overlap, small enough to brute force. *)
  let store =
    Lmad.of_levels ~start:[| 0; 0 |] ~levels:[ lv [| 0; 8 |] 4; lv [| 0; 40 |] 3 ]
  in
  let load =
    Lmad.of_levels ~start:[| 0; 16 |] ~levels:[ lv [| 0; 8 |] 5; lv [| 0; 40 |] 2 ]
  in
  check_int "nested matches brute force" (brute_matches ~store ~load)
    (Solver.count_matches ~store ~load)

let test_solver_layout_validation () =
  let a = Lmad.make [| 0; 0 |] and b = Lmad.make [| 0 |] in
  check_bool "dim mismatch raises" true
    (try
       ignore (Solver.count_conflicts ~store:a ~load:b);
       false
     with Invalid_argument _ -> true);
  check_bool "1-dim conflicts raises" true
    (try
       ignore (Solver.count_conflicts ~store:b ~load:b);
       false
     with Invalid_argument _ -> true)

let gen_ap ~dims =
  QCheck.Gen.(
    let* start = array_size (return dims) (int_range (-12) 12) in
    let* stride = array_size (return dims) (int_range (-6) 6) in
    let* count = int_range 1 12 in
    return (start, stride, count))

let arb_ap_pair dims = QCheck.make QCheck.Gen.(pair (gen_ap ~dims) (gen_ap ~dims))

let prop_conflicts_vs_brute dims name =
  QCheck.Test.make ~name ~count:2000 (arb_ap_pair dims)
    (fun ((s1, t1, c1), (s2, t2, c2)) ->
      let store = mk ~start:s1 ~stride:t1 ~count:c1 in
      let load = mk ~start:s2 ~stride:t2 ~count:c2 in
      Solver.count_conflicts ~store ~load = brute_conflicts ~store ~load)

let gen_nested ~dims ~max_levels =
  QCheck.Gen.(
    let* start = array_size (return dims) (int_range (-10) 10) in
    let* n_levels = int_range 0 max_levels in
    let* levels =
      list_size (return n_levels)
        (let* stride = array_size (return dims) (int_range (-5) 5) in
         let* count = int_range 2 5 in
         return (lv stride count))
    in
    return (Lmad.of_levels ~start ~levels))

let prop_matches_vs_brute =
  QCheck.Test.make ~name:"count_matches = brute force (nested, 2d)" ~count:1000
    (QCheck.make
       ~print:(fun (a, b) -> Format.asprintf "%a vs %a" Lmad.pp a Lmad.pp b)
       QCheck.Gen.(pair (gen_nested ~dims:2 ~max_levels:3) (gen_nested ~dims:2 ~max_levels:3)))
    (fun (store, load) ->
      Solver.count_matches ~store ~load = brute_matches ~store ~load)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_lmad"
    [
      ( "lmad",
        [
          tc "make" test_make;
          tc "one level" test_one_level;
          tc "two levels" test_two_levels;
          tc "redundant levels dropped" test_redundant_levels_dropped;
          tc "of_levels validation" test_of_levels_validation;
          tc "point bounds" test_point_bounds;
          tc "pp" test_pp;
        ] );
      ( "compressor",
        [
          tc "linear stream" test_compress_linear_stream;
          tc "paper example (two phases)" test_compress_two_phases;
          tc "nested sweep -> one descriptor" test_nested_sweep_single_descriptor;
          tc "nested matrix walk" test_nested_matrix_walk;
          tc "max depth respected" test_max_depth_respected;
          tc "budget overflow" test_budget_overflow;
          tc "summary granularity" test_summary_granularity;
          tc "multidim stream" test_multidim_stream;
          tc "placement reporting" test_placement_reporting;
          tc "create validation" test_create_validation;
          tc "of_state refuses an open position out of range" test_of_state_open_position;
          QCheck_alcotest.to_alcotest prop_roundtrip_when_captured;
          QCheck_alcotest.to_alcotest prop_roundtrip_always_prefix_free;
          QCheck_alcotest.to_alcotest prop_accounting;
          QCheck_alcotest.to_alcotest prop_nested_ramps_fit_one_descriptor;
          QCheck_alcotest.to_alcotest prop_flat_eq_legacy_1d;
          QCheck_alcotest.to_alcotest prop_flat_eq_legacy_2d;
          QCheck_alcotest.to_alcotest prop_code_eq_add;
          QCheck_alcotest.to_alcotest prop_discard_gcd_eq_legacy;
          QCheck_alcotest.to_alcotest prop_state_resume_eq;
        ] );
      ( "solver",
        [
          tc "simple raw" test_solver_simple_raw;
          tc "no overlap" test_solver_no_overlap;
          tc "time order" test_solver_time_order;
          tc "interleaved time" test_solver_interleaved_time;
          tc "different strides" test_solver_different_strides;
          tc "single points" test_solver_single_points;
          tc "matches multiplicity" test_matches_multiplicity;
          tc "nested matches exact" test_matches_nested_exact;
          tc "layout validation" test_solver_layout_validation;
          QCheck_alcotest.to_alcotest
            (prop_conflicts_vs_brute 2 "count_conflicts = brute force (2d)");
          QCheck_alcotest.to_alcotest
            (prop_conflicts_vs_brute 3 "count_conflicts = brute force (3d)");
          QCheck_alcotest.to_alcotest prop_matches_vs_brute;
        ] );
    ]
