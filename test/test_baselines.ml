open Ormp_baselines
open Ormp_trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let ld ~instr ~addr = Event.Access { instr; addr; size = 8; is_store = false }
let st ~instr ~addr = Event.Access { instr; addr; size = 8; is_store = true }

(* Each event goes through the consumer's batch, flushed at once, so the
   profiler's state is current whenever the test reads it. *)
let sink_of b ev =
  Batch.event b ev;
  Batch.flush b

let feed sink evs = List.iter sink evs

(* ------------------------------------------------------------------ *)
(* Dep_types                                                           *)
(* ------------------------------------------------------------------ *)

let test_dep_find () =
  let deps = [ { Dep_types.store = 1; load = 2; freq = 0.5 } ] in
  check_float "present" 0.5 (Dep_types.find deps ~store:1 ~load:2);
  check_float "absent" 0.0 (Dep_types.find deps ~store:9 ~load:2)

let test_dep_pairs_union () =
  let a = [ { Dep_types.store = 1; load = 2; freq = 0.5 } ] in
  let b =
    [ { Dep_types.store = 1; load = 2; freq = 0.9 }; { Dep_types.store = 3; load = 4; freq = 0.1 } ]
  in
  Alcotest.(check (list (pair int int))) "deduplicated union" [ (1, 2); (3, 4) ]
    (Dep_types.pairs [ a; b ])

let test_dep_pp () =
  Alcotest.(check string) "render" "(st1, ld2, 50.0%)"
    (Format.asprintf "%a" Dep_types.pp { Dep_types.store = 1; load = 2; freq = 0.5 })

(* ------------------------------------------------------------------ *)
(* Lossless_dep                                                        *)
(* ------------------------------------------------------------------ *)

let test_lossless_raw () =
  let t = Lossless_dep.create () in
  feed (sink_of (Lossless_dep.batch t))
    [ st ~instr:1 ~addr:100; ld ~instr:2 ~addr:100; ld ~instr:2 ~addr:200 ];
  (match Lossless_dep.deps t with
  | [ d ] ->
    check_int "store" 1 d.Dep_types.store;
    check_int "load" 2 d.Dep_types.load;
    check_float "freq = 1 conflict / 2 execs" 0.5 d.Dep_types.freq
  | l -> Alcotest.failf "expected 1 dep, got %d" (List.length l));
  check_int "load execs" 2 (Lossless_dep.load_execs t 2);
  check_int "locations" 1 (Lossless_dep.locations t)

let test_lossless_last_writer_semantics () =
  (* The paper's example: ld1 depends on st2 for 10%, st3 for 90% — each
     load execution is charged to the LAST writer only. *)
  let t = Lossless_dep.create () in
  let sink = sink_of (Lossless_dep.batch t) in
  for i = 1 to 10 do
    if i = 1 then sink (st ~instr:2 ~addr:100) else sink (st ~instr:3 ~addr:100);
    sink (ld ~instr:1 ~addr:100)
  done;
  let deps = Lossless_dep.deps t in
  check_float "st2 10%" 0.1 (Dep_types.find deps ~store:2 ~load:1);
  check_float "st3 90%" 0.9 (Dep_types.find deps ~store:3 ~load:1)

let test_lossless_no_dep_without_store () =
  let t = Lossless_dep.create () in
  feed (sink_of (Lossless_dep.batch t)) [ ld ~instr:2 ~addr:100 ];
  check_int "no deps" 0 (List.length (Lossless_dep.deps t))

let test_lossless_load_before_store () =
  let t = Lossless_dep.create () in
  feed (sink_of (Lossless_dep.batch t)) [ ld ~instr:2 ~addr:100; st ~instr:1 ~addr:100 ];
  check_int "no RAW backwards" 0 (List.length (Lossless_dep.deps t))

(* ------------------------------------------------------------------ *)
(* Connors                                                             *)
(* ------------------------------------------------------------------ *)

let test_connors_hit_within_window () =
  let t = Connors.create ~window:4 () in
  feed (sink_of (Connors.batch t)) [ st ~instr:1 ~addr:100; ld ~instr:2 ~addr:100 ];
  check_float "found" 1.0 (Dep_types.find (Connors.deps t) ~store:1 ~load:2)

let test_connors_miss_outside_window () =
  let t = Connors.create ~window:4 () in
  let sink = sink_of (Connors.batch t) in
  sink (st ~instr:1 ~addr:100);
  (* four unrelated stores push the interesting one out of the window *)
  for i = 1 to 4 do
    sink (st ~instr:9 ~addr:(1000 + (8 * i)))
  done;
  sink (ld ~instr:2 ~addr:100);
  check_float "missed" 0.0 (Dep_types.find (Connors.deps t) ~store:1 ~load:2)

let test_connors_most_recent_store_wins () =
  let t = Connors.create ~window:16 () in
  feed (sink_of (Connors.batch t))
    [ st ~instr:1 ~addr:100; st ~instr:3 ~addr:100; ld ~instr:2 ~addr:100 ];
  let deps = Connors.deps t in
  check_float "recent writer charged" 1.0 (Dep_types.find deps ~store:3 ~load:2);
  check_float "shadowed writer not charged" 0.0 (Dep_types.find deps ~store:1 ~load:2)

let test_connors_window_validation () =
  check_bool "rejects zero" true
    (try
       ignore (Connors.create ~window:0 ());
       false
     with Invalid_argument _ -> true)

(* The paper's Figure 7 property: Connors never overestimates any pair. *)
let prop_connors_never_overestimates =
  QCheck.Test.make ~name:"Connors frequency <= lossless frequency per pair" ~count:150
    QCheck.(
      pair (int_range 1 32)
        (small_list (triple bool (int_range 0 3) (int_range 0 7))))
    (fun (window, ops) ->
      let truth = Lossless_dep.create () in
      let connors = Connors.create ~window () in
      let sink = sink_of (Batch.fanout [ Lossless_dep.batch truth; Connors.batch connors ]) in
      List.iter
        (fun (is_store, instr, slot) ->
          let instr = if is_store then instr else instr + 10 in
          sink (Event.Access { instr; addr = 64 + (8 * slot); size = 8; is_store }))
        ops;
      let td = Lossless_dep.deps truth in
      let cd = Connors.deps connors in
      List.for_all
        (fun (s, l) ->
          Dep_types.find cd ~store:s ~load:l <= Dep_types.find td ~store:s ~load:l +. 1e-9)
        (Dep_types.pairs [ td; cd ]))

(* With an unbounded window Connors IS the lossless profiler. *)
let prop_connors_unbounded_equals_lossless =
  QCheck.Test.make ~name:"Connors with huge window = lossless" ~count:150
    QCheck.(small_list (triple bool (int_range 0 3) (int_range 0 7)))
    (fun ops ->
      let truth = Lossless_dep.create () in
      let connors = Connors.create ~window:max_int ()
      in
      let sink = sink_of (Batch.fanout [ Lossless_dep.batch truth; Connors.batch connors ]) in
      List.iter
        (fun (is_store, instr, slot) ->
          let instr = if is_store then instr else instr + 10 in
          sink (Event.Access { instr; addr = 64 + (8 * slot); size = 8; is_store }))
        ops;
      Lossless_dep.deps truth = Connors.deps connors)

(* ------------------------------------------------------------------ *)
(* Lossless_stride                                                     *)
(* ------------------------------------------------------------------ *)

let test_stride_pure () =
  let t = Lossless_stride.create () in
  let sink = sink_of (Lossless_stride.batch t) in
  for i = 0 to 9 do
    sink (ld ~instr:1 ~addr:(1000 + (8 * i)))
  done;
  check_int "execs" 10 (Lossless_stride.execs t 1);
  (match Lossless_stride.strides t 1 with
  | [ (8, 9) ] -> ()
  | l -> Alcotest.failf "unexpected strides (%d entries)" (List.length l));
  (match Lossless_stride.strongly_strided t with
  | [ (1, 8) ] -> ()
  | l -> Alcotest.failf "expected [(1,8)], got %d entries" (List.length l))

let test_stride_threshold () =
  let t = Lossless_stride.create () in
  let sink = sink_of (Lossless_stride.batch t) in
  (* 6 strides of 8, 4 strides of 24: dominant covers 60% < 70%. *)
  let addr = ref 0 in
  sink (ld ~instr:1 ~addr:!addr);
  for i = 1 to 10 do
    addr := !addr + (if i <= 6 then 8 else 24);
    sink (ld ~instr:1 ~addr:!addr)
  done;
  check_int "not strongly strided at 0.7" 0 (List.length (Lossless_stride.strongly_strided t));
  check_int "strongly strided at 0.5" 1
    (List.length (Lossless_stride.strongly_strided ~threshold:0.5 t))

let test_stride_single_exec_excluded () =
  let t = Lossless_stride.create () in
  (sink_of (Lossless_stride.batch t)) (ld ~instr:1 ~addr:0);
  check_int "too few execs" 0 (List.length (Lossless_stride.strongly_strided t))

let test_stride_multiple_instrs () =
  let t = Lossless_stride.create () in
  let sink = sink_of (Lossless_stride.batch t) in
  for i = 0 to 9 do
    sink (ld ~instr:1 ~addr:(8 * i));
    sink (st ~instr:2 ~addr:(4096 + (16 * i)))
  done;
  (match Lossless_stride.strongly_strided t with
  | [ (1, 8); (2, 16) ] -> ()
  | l -> Alcotest.failf "expected both instructions, got %d" (List.length l))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_baselines"
    [
      ( "dep_types",
        [ tc "find" test_dep_find; tc "pairs union" test_dep_pairs_union; tc "pp" test_dep_pp ] );
      ( "lossless_dep",
        [
          tc "raw dependence" test_lossless_raw;
          tc "last-writer semantics (paper example)" test_lossless_last_writer_semantics;
          tc "no store, no dep" test_lossless_no_dep_without_store;
          tc "load before store" test_lossless_load_before_store;
        ] );
      ( "connors",
        [
          tc "hit within window" test_connors_hit_within_window;
          tc "miss outside window" test_connors_miss_outside_window;
          tc "most recent store wins" test_connors_most_recent_store_wins;
          tc "window validation" test_connors_window_validation;
          QCheck_alcotest.to_alcotest prop_connors_never_overestimates;
          QCheck_alcotest.to_alcotest prop_connors_unbounded_equals_lossless;
        ] );
      ( "lossless_stride",
        [
          tc "pure stride" test_stride_pure;
          tc "threshold" test_stride_threshold;
          tc "single exec excluded" test_stride_single_exec_excluded;
          tc "multiple instrs" test_stride_multiple_instrs;
        ] );
    ]
