open Ormp_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let site_name = Printf.sprintf "site%d"

(* ------------------------------------------------------------------ *)
(* Omc                                                                 *)
(* ------------------------------------------------------------------ *)

let test_translate_basic () =
  let o = Omc.create ~site_name () in
  Omc.on_alloc o ~time:0 ~site:5 ~addr:1000 ~size:64 ~type_name:None;
  check_bool "inside" true (Omc.translate o 1010 = Some (0, 0, 10));
  check_bool "at base" true (Omc.translate o 1000 = Some (0, 0, 0));
  check_bool "past end" true (Omc.translate o 1064 = None);
  check_bool "before" true (Omc.translate o 999 = None);
  check_int "hits" 2 (Omc.translations o);
  check_int "misses" 2 (Omc.misses o)

let test_groups_by_site () =
  let o = Omc.create ~site_name () in
  Omc.on_alloc o ~time:0 ~site:1 ~addr:1000 ~size:16 ~type_name:None;
  Omc.on_alloc o ~time:1 ~site:1 ~addr:2000 ~size:16 ~type_name:None;
  Omc.on_alloc o ~time:2 ~site:2 ~addr:3000 ~size:16 ~type_name:None;
  check_int "two groups" 2 (List.length (Omc.groups o));
  check_bool "same site, same group, serials 0 and 1" true
    (Omc.translate o 2000 = Some (0, 1, 0));
  check_bool "other site is group 1" true (Omc.translate o 3000 = Some (1, 0, 0));
  let g0 = Omc.group o 0 in
  check_int "population" 2 g0.Omc.population;
  Alcotest.(check string) "label from site" "site1" g0.Omc.label

let test_groups_by_type () =
  let o = Omc.create ~grouping:`Type ~site_name () in
  Omc.on_alloc o ~time:0 ~site:1 ~addr:1000 ~size:16 ~type_name:(Some "node");
  Omc.on_alloc o ~time:1 ~site:2 ~addr:2000 ~size:16 ~type_name:(Some "node");
  Omc.on_alloc o ~time:2 ~site:1 ~addr:3000 ~size:16 ~type_name:(Some "edge");
  check_int "grouped by type" 2 (List.length (Omc.groups o));
  check_bool "two sites, one type group" true (Omc.translate o 2000 = Some (0, 1, 0));
  Alcotest.(check string) "label is type" "node" (Omc.group o 0).Omc.label;
  (* untyped allocations fall back to site grouping *)
  Omc.on_alloc o ~time:3 ~site:9 ~addr:4000 ~size:16 ~type_name:None;
  Alcotest.(check string) "fallback label" "site9" (Omc.group o 2).Omc.label

let test_free_and_lifetimes () =
  let o = Omc.create ~site_name () in
  Omc.on_alloc o ~time:3 ~site:1 ~addr:1000 ~size:32 ~type_name:None;
  Omc.on_free o ~time:9 ~addr:1000;
  check_bool "gone after free" true (Omc.translate o 1010 = None);
  check_int "no live objects" 0 (Omc.live_objects o);
  check_int "max live" 1 (Omc.max_live_objects o);
  (match Omc.lifetimes o with
  | [ lt ] ->
    check_int "alloc time" 3 lt.Omc.alloc_time;
    check_bool "free time" true (lt.Omc.free_time = Some 9);
    check_int "base" 1000 lt.Omc.base
  | l -> Alcotest.failf "expected 1 lifetime, got %d" (List.length l));
  (* address reuse gets a fresh serial in the same group *)
  Omc.on_alloc o ~time:10 ~site:1 ~addr:1000 ~size:32 ~type_name:None;
  check_bool "reused address, new serial" true (Omc.translate o 1000 = Some (0, 1, 0))

let test_unknown_free_ignored () =
  let o = Omc.create ~site_name () in
  Omc.on_free o ~time:0 ~addr:555;
  check_int "still empty" 0 (Omc.live_objects o)

let test_group_unknown_id () =
  let o = Omc.create ~site_name () in
  check_bool "raises" true
    (try
       ignore (Omc.group o 0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Cdc                                                                 *)
(* ------------------------------------------------------------------ *)

let mk_cdc () =
  let tuples = ref [] in
  let cdc = Cdc.create ~site_name ~on_tuple:(fun tu -> tuples := tu :: !tuples) () in
  (cdc, Cdc.sink cdc, tuples)

let access ~instr ~addr ~is_store =
  Ormp_trace.Event.Access { instr; addr; size = 8; is_store }

let test_cdc_translates_and_stamps () =
  let cdc, sink, tuples = mk_cdc () in
  sink (Ormp_trace.Event.Alloc { site = 1; addr = 1000; size = 64; type_name = None });
  sink (access ~instr:7 ~addr:1008 ~is_store:false);
  sink (access ~instr:8 ~addr:1016 ~is_store:true);
  (match List.rev !tuples with
  | [ t1; t2 ] ->
    check_int "instr" 7 t1.Tuple.instr;
    check_int "group" 0 t1.Tuple.group;
    check_int "object" 0 t1.Tuple.obj;
    check_int "offset" 8 t1.Tuple.offset;
    check_int "time 0" 0 t1.Tuple.time;
    check_bool "load" false t1.Tuple.is_store;
    check_int "time 1" 1 t2.Tuple.time;
    check_bool "store" true t2.Tuple.is_store
  | l -> Alcotest.failf "expected 2 tuples, got %d" (List.length l));
  check_int "collected" 2 (Cdc.collected cdc);
  check_int "wild" 0 (Cdc.wild cdc)

let test_cdc_wild_routing () =
  let cdc, sink, tuples = mk_cdc () in
  sink (access ~instr:7 ~addr:0xdead ~is_store:false);
  check_int "no tuple" 0 (List.length !tuples);
  check_int "wild counted" 1 (Cdc.wild cdc);
  check_int "clock not advanced by wild accesses" 0 (Cdc.collected cdc)

let test_cdc_free_routing () =
  let _, sink, tuples = mk_cdc () in
  sink (Ormp_trace.Event.Alloc { site = 1; addr = 1000; size = 64; type_name = None });
  sink (Ormp_trace.Event.Free { addr = 1000; site = None });
  sink (access ~instr:7 ~addr:1000 ~is_store:false);
  check_int "access after free is wild" 0 (List.length !tuples)

let test_tuple_pp () =
  let t = { Tuple.instr = 1; group = 2; obj = 3; offset = 4; time = 5; is_store = true } in
  Alcotest.(check string) "render" "(st i1, g2, o3, +4, t5)" (Format.asprintf "%a" Tuple.pp t)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_core"
    [
      ( "omc",
        [
          tc "translate basic" test_translate_basic;
          tc "groups by site" test_groups_by_site;
          tc "groups by type" test_groups_by_type;
          tc "free and lifetimes" test_free_and_lifetimes;
          tc "unknown free ignored" test_unknown_free_ignored;
          tc "unknown group id" test_group_unknown_id;
        ] );
      ( "cdc",
        [
          tc "translates and stamps" test_cdc_translates_and_stamps;
          tc "wild routing" test_cdc_wild_routing;
          tc "free routing" test_cdc_free_routing;
          tc "tuple pp" test_tuple_pp;
        ] );
    ]
