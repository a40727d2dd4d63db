(* Equivalence of the legacy per-event path and the batched fast path.

   The batched pipeline (Batch -> Cdc.batch_tuples -> Omc.translate_batch
   with the MRU translation cache) is a pure performance rework: it must
   produce byte-identical profiles to the per-event sinks. The workload is
   Micro.churn, which frees and re-allocates constantly — the hostile case
   for the MRU cache, where any missed invalidation would surface as a
   wrong (group, serial) in the profile. *)

open Ormp_vm

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let churn = Ormp_workloads.Micro.churn ~live:24 ~ops:3000 ()
let site_name = Printf.sprintf "site%d"

(* Both paths get elapsed:0.0 so the serialized profiles are comparable
   byte for byte; wall time is the one field allowed to differ. *)

let whomp_pair () =
  let s, fin = Ormp_whomp.Whomp.sink ~site_name () in
  ignore (Runner.run churn s);
  let legacy = fin ~elapsed:0.0 in
  let b, finb = Ormp_whomp.Whomp.sink_batched ~site_name () in
  ignore (Runner.run_batched churn b);
  (legacy, finb ~elapsed:0.0)

let test_whomp_equivalence () =
  let legacy, batched = whomp_pair () in
  check_int "same collected" legacy.Ormp_whomp.Whomp.collected
    batched.Ormp_whomp.Whomp.collected;
  check_int "same wild" legacy.Ormp_whomp.Whomp.wild batched.Ormp_whomp.Whomp.wild;
  check_string "byte-identical WHOMP profile"
    (Ormp_util.Sexp.to_string (Ormp_persist.Whomp_io.to_sexp legacy))
    (Ormp_util.Sexp.to_string (Ormp_persist.Whomp_io.to_sexp batched))

let test_rasg_equivalence () =
  let s, fin = Ormp_whomp.Rasg.sink () in
  ignore (Runner.run churn s);
  let legacy = fin ~elapsed:0.0 in
  let b, finb = Ormp_whomp.Rasg.sink_batched () in
  ignore (Runner.run_batched churn b);
  let batched = finb ~elapsed:0.0 in
  check_int "same accesses" legacy.Ormp_whomp.Rasg.accesses batched.Ormp_whomp.Rasg.accesses;
  check_string "identical RASG grammar"
    (Format.asprintf "%a" Ormp_sequitur.Sequitur.pp legacy.Ormp_whomp.Rasg.grammar)
    (Format.asprintf "%a" Ormp_sequitur.Sequitur.pp batched.Ormp_whomp.Rasg.grammar)

let test_leap_equivalence () =
  let s, fin = Ormp_leap.Leap.sink ~site_name () in
  ignore (Runner.run churn s);
  let legacy = fin ~elapsed:0.0 in
  let b, finb = Ormp_leap.Leap.sink_batched ~site_name () in
  ignore (Runner.run_batched churn b);
  let batched = finb ~elapsed:0.0 in
  check_int "same collected" legacy.Ormp_leap.Leap.collected batched.Ormp_leap.Leap.collected;
  check_string "byte-identical LEAP profile"
    (Ormp_util.Sexp.to_string (Ormp_persist.Leap_io.to_sexp legacy))
    (Ormp_util.Sexp.to_string (Ormp_persist.Leap_io.to_sexp batched))

(* ------------------------------------------------------------------ *)
(* MRU cache invalidation: the stale-entry regression                  *)
(* ------------------------------------------------------------------ *)

(* One access through the batched translator: [Some (group, serial,
   offset)], or [None] for an untranslatable address. *)
let translate1 omc ~instr addr =
  let groups = Array.make 1 0 and serials = Array.make 1 0 and offsets = Array.make 1 0 in
  Ormp_core.Omc.translate_batch omc ~instrs:[| instr |] ~addrs:[| addr |] ~len:1 ~groups
    ~serials ~offsets;
  if groups.(0) < 0 then None else Some (groups.(0), serials.(0), offsets.(0))

(* Free an object an instruction has cached, then re-allocate a
   different-sized object at the same base (what every free-list
   allocator does). The cached lifetime is dead but its record still
   covers the address; a cache that skips the liveness check would
   answer with the dead object's (group, serial). *)
let test_stale_mru_invalidated () =
  let omc = Ormp_core.Omc.create ~site_name () in
  Ormp_core.Omc.on_alloc omc ~time:0 ~site:1 ~addr:1000 ~size:64 ~type_name:None;
  (match translate1 omc ~instr:0 1008 with
  | Some (g, s, off) ->
    check_int "first object group" 0 g;
    check_int "first object serial" 0 s;
    check_int "first object offset" 8 off
  | None -> Alcotest.fail "first translation missed");
  (* Hit once more so the MRU entry is warm (a way-0 hit). *)
  (match translate1 omc ~instr:0 1016 with
  | Some (_, _, off) -> check_int "warm hit offset" 16 off
  | None -> Alcotest.fail "warm hit missed");
  Ormp_core.Omc.on_free omc ~time:1 ~addr:1000;
  Ormp_core.Omc.on_alloc omc ~time:2 ~site:2 ~addr:1000 ~size:128 ~type_name:None;
  (match translate1 omc ~instr:0 1008 with
  | Some (g, s, off) ->
    check_int "new object's group, not the dead one's" 1 g;
    check_int "new object's serial" 0 s;
    check_int "offset within new object" 8 off
  | None -> Alcotest.fail "translation after realloc missed");
  (* The warm entry now points at the new object; a second address in
     its (larger) range hits it. *)
  match translate1 omc ~instr:0 1100 with
  | Some (g, s, off) ->
    check_int "batch: new object's group" 1 g;
    check_int "batch: new object's serial" 0 s;
    check_int "batch: offset within new object" 100 off
  | None -> Alcotest.fail "in-range address of the new object missed"

(* An address past the end of the re-allocated (smaller) object must be
   wild, even though the dead cached object once covered it. *)
let test_stale_mru_shrunk_object () =
  let omc = Ormp_core.Omc.create ~site_name () in
  Ormp_core.Omc.on_alloc omc ~time:0 ~site:1 ~addr:2000 ~size:256 ~type_name:None;
  ignore (translate1 omc ~instr:3 2128);
  Ormp_core.Omc.on_free omc ~time:1 ~addr:2000;
  Ormp_core.Omc.on_alloc omc ~time:2 ~site:1 ~addr:2000 ~size:64 ~type_name:None;
  (match translate1 omc ~instr:3 2128 with
  | None -> ()
  | Some _ -> Alcotest.fail "address past the new object's end must not translate");
  match translate1 omc ~instr:3 2032 with
  | Some (_, s, off) ->
    check_int "new serial under same group" 1 s;
    check_int "offset in the shrunk object" 32 off
  | None -> Alcotest.fail "in-range address must translate"

(* The two-way cache must convert a strict two-object alternation (copy
   loop) into hits once warm: way 0 holds the last object, way 1 the one
   it displaced, so the ping-pong never reaches the range index. *)
let test_mru_two_way_ping_pong () =
  let omc = Ormp_core.Omc.create ~site_name () in
  Ormp_core.Omc.on_alloc omc ~time:0 ~site:1 ~addr:1000 ~size:64 ~type_name:None;
  Ormp_core.Omc.on_alloc omc ~time:1 ~site:1 ~addr:2000 ~size:64 ~type_name:None;
  let n = 64 in
  let instrs = Array.make n 5 in
  let addrs = Array.init n (fun i -> (if i land 1 = 0 then 1000 else 2000) + (i land 7) * 8) in
  let groups = Array.make n 0 and serials = Array.make n 0 and offsets = Array.make n 0 in
  (* warm-up fills both ways *)
  Ormp_core.Omc.translate_batch omc ~instrs ~addrs ~len:2 ~groups ~serials ~offsets;
  let hits0 = Ormp_core.Omc.cache_hits omc in
  Ormp_core.Omc.translate_batch omc ~instrs ~addrs ~len:n ~groups ~serials ~offsets;
  check_int "every alternating access hits a cache way"
    (hits0 + n)
    (Ormp_core.Omc.cache_hits omc);
  for i = 0 to n - 1 do
    check_int "serial tracks the alternation" (i land 1) serials.(i);
    check_int "offset inside the right object" (i land 7 * 8) offsets.(i)
  done

(* Steady-state translation allocates nothing: the cache is int lanes and
   misses resolve through the range index's flat lanes. *)
let test_translate_batch_alloc_free () =
  let omc = Ormp_core.Omc.create ~site_name () in
  for k = 0 to 15 do
    Ormp_core.Omc.on_alloc omc ~time:k ~site:1 ~addr:(1000 * (k + 1)) ~size:512 ~type_name:None
  done;
  let n = 4096 in
  let instrs = Array.init n (fun i -> i land 7) in
  (* mixes warm hits, way-1 promotions, index fills and wild misses *)
  let addrs =
    Array.init n (fun i ->
        if i land 31 = 31 then 999 (* below every object: a miss *)
        else (1000 * (1 + (i land 15))) + ((i land 63) * 8))
  in
  let groups = Array.make n 0 and serials = Array.make n 0 and offsets = Array.make n 0 in
  Ormp_core.Omc.translate_batch omc ~instrs ~addrs ~len:n ~groups ~serials ~offsets;
  let w0 = Gc.minor_words () in
  Ormp_core.Omc.translate_batch omc ~instrs ~addrs ~len:n ~groups ~serials ~offsets;
  let w1 = Gc.minor_words () in
  let per_event = (w1 -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "translate_batch words/event %.4f = 0" per_event)
    true (per_event <= 0.01)

(* ------------------------------------------------------------------ *)
(* Fanout: one run driving several batched consumers                   *)
(* ------------------------------------------------------------------ *)

module Batch = Ormp_trace.Batch
module Event = Ormp_trace.Event

(* A child that records the exact event sequence it observes, re-boxed
   through the legacy sink adapter. *)
let recorder ~capacity =
  let seen = ref [] in
  let b = Batch.of_sink ~capacity (fun ev -> seen := ev :: !seen) in
  (b, fun () -> List.rev !seen)

let script =
  List.concat_map
    (fun i ->
      [
        Event.Alloc { site = i; addr = 0x100 * (i + 1); size = 32; type_name = None };
        Event.Access
          { instr = i; addr = (0x100 * (i + 1)) + 8; size = 8; is_store = i mod 2 = 0 };
        Event.Access { instr = i; addr = (0x100 * (i + 1)) + 16; size = 8; is_store = false };
        Event.Free { addr = 0x100 * (i + 1); site = Some (100 + i) };
      ])
    (List.init 37 Fun.id)

(* Children with different capacities flush at different chunk
   boundaries; both must still observe the exact event sequence. *)
let test_fanout_order_preserved () =
  let c1, seen1 = recorder ~capacity:4 and c2, seen2 = recorder ~capacity:64 in
  let f = Batch.fanout ~capacity:16 [ c1; c2 ] in
  List.iter (Batch.event f) script;
  Batch.flush f;
  check_bool "small-capacity child saw the script" true (seen1 () = script);
  check_bool "large-capacity child saw the script" true (seen2 () = script)

(* flush on the fanout must cascade into children even when the fanout's
   own buffer is empty but a child still holds accesses. *)
let test_fanout_flush_cascades () =
  let c, seen = recorder ~capacity:1024 in
  let f = Batch.fanout ~capacity:2 [ c ] in
  Batch.on_access f ~instr:1 ~addr:0x10 ~size:8 ~is_store:false;
  Batch.on_access f ~instr:1 ~addr:0x18 ~size:8 ~is_store:false;
  (* The fanout's 2-entry buffer has flushed into the child, whose own
     1024-entry buffer is still pending. *)
  check_int "child buffers until flushed" 0 (List.length (seen ()));
  Batch.flush f;
  check_int "cascaded flush drains the child" 2 (List.length (seen ()))

(* A profiler and the sanitizer sharing one fanout must each see a
   faithful stream: the profiler's batched profile equals a direct run,
   and the sanitizer still pins the planted defect. *)
let test_fanout_profiler_plus_sanitizer () =
  let p = Ormp_workloads.Faults.inject ~defects:[ Ormp_workloads.Faults.Uaf ] churn in
  let wb, wfin = Ormp_whomp.Whomp.sink_batched ~site_name () in
  let san = Ormp_check.Sanitizer.create () in
  let f = Batch.fanout [ wb; Ormp_check.Sanitizer.batch san ] in
  ignore (Runner.run_batched p f);
  let shared = wfin ~elapsed:0.0 in
  let direct =
    let b, fin = Ormp_whomp.Whomp.sink_batched ~site_name () in
    ignore (Runner.run_batched p b);
    fin ~elapsed:0.0
  in
  check_string "profile unchanged by fanout"
    (Ormp_util.Sexp.to_string (Ormp_persist.Whomp_io.to_sexp direct))
    (Ormp_util.Sexp.to_string (Ormp_persist.Whomp_io.to_sexp shared));
  let report = Ormp_check.Sanitizer.finish ~site_name ~subject:p.Ormp_vm.Program.name san in
  check_int "sanitizer saw the planted uaf" 1 (Ormp_check.Report.errors report)

let () =
  Alcotest.run "batch"
    [
      ( "equivalence",
        [
          Alcotest.test_case "whomp legacy = batched" `Quick test_whomp_equivalence;
          Alcotest.test_case "rasg legacy = batched" `Quick test_rasg_equivalence;
          Alcotest.test_case "leap legacy = batched" `Quick test_leap_equivalence;
        ] );
      ( "mru-cache",
        [
          Alcotest.test_case "stale entry invalidated by free" `Quick
            test_stale_mru_invalidated;
          Alcotest.test_case "shrunk realloc at same base" `Quick
            test_stale_mru_shrunk_object;
          Alcotest.test_case "two-way ping-pong hits" `Quick test_mru_two_way_ping_pong;
          Alcotest.test_case "translate_batch allocation-free" `Quick
            test_translate_batch_alloc_free;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "order preserved across children" `Quick
            test_fanout_order_preserved;
          Alcotest.test_case "flush cascades" `Quick test_fanout_flush_cascades;
          Alcotest.test_case "profiler + sanitizer share one run" `Quick
            test_fanout_profiler_plus_sanitizer;
        ] );
    ]
