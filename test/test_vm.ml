open Ormp_vm
open Ormp_trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let recording_engine ?(config = Config.default) ?(statics = []) () =
  let r = Ormp_util.Vec.create () in
  let e = Engine.make ~config ~sink:(Ormp_util.Vec.push r) ~statics in
  (e, r)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_alloc_emits_probe () =
  let e, r = recording_engine () in
  let site = Engine.instr e ~name:"t.alloc" Instr.Alloc_site in
  let o = Engine.alloc e ~site ~type_name:"n" 32 in
  (match Ormp_util.Vec.to_array r with
  | [| Event.Alloc { site = s; addr; size; type_name } |] ->
    check_int "site" site s;
    check_int "addr" (Engine.addr o) addr;
    check_int "size" 32 size;
    check_bool "type" true (type_name = Some "n")
  | evs -> Alcotest.failf "unexpected events (%d)" (Array.length evs));
  check_int "obj size" 32 (Engine.obj_size o)

let test_load_store_events () =
  let e, r = recording_engine () in
  let site = Engine.instr e ~name:"t.alloc" Instr.Alloc_site in
  let ld = Engine.instr e ~name:"t.ld" Instr.Load in
  let st = Engine.instr e ~name:"t.st" Instr.Store in
  let o = Engine.alloc e ~site 64 in
  Engine.load e ~instr:ld o 8;
  Engine.store e ~instr:st ~size:4 o 16;
  (match Ormp_util.Vec.to_array r with
  | [|
      _;
      Event.Access { instr = i1; addr = ad1; size = s1; is_store = st1 };
      Event.Access { instr = i2; addr = ad2; size = s2; is_store = st2 };
    |] ->
    check_int "ld instr" ld i1;
    check_int "ld addr" (Engine.addr o + 8) ad1;
    check_int "ld size" 8 s1;
    check_bool "ld kind" false st1;
    check_int "st instr" st i2;
    check_int "st addr" (Engine.addr o + 16) ad2;
    check_int "st size" 4 s2;
    check_bool "st kind" true st2
  | evs -> Alcotest.failf "unexpected events (%d)" (Array.length evs))

let test_access_bounds_checked () =
  let e, _ = recording_engine () in
  let site = Engine.instr e ~name:"t.alloc" Instr.Alloc_site in
  let ld = Engine.instr e ~name:"t.ld" Instr.Load in
  let o = Engine.alloc e ~site 16 in
  let rejects off size =
    check_bool
      (Printf.sprintf "off=%d size=%d rejected" off size)
      true
      (try
         Engine.load e ~instr:ld ~size o off;
         false
       with Invalid_argument _ -> true)
  in
  rejects (-1) 8;
  rejects 16 1;
  rejects 9 8;
  (* boundary access is fine *)
  Engine.load e ~instr:ld ~size:8 o 8

let test_free_emits_probe_and_recycles () =
  let e, r = recording_engine () in
  let site = Engine.instr e ~name:"t.alloc" Instr.Alloc_site in
  let fsite = Engine.instr e ~name:"t.free" Instr.Free_site in
  let o = Engine.alloc e ~site 32 in
  Engine.free e ~site:fsite o;
  check_bool "free event emitted" true
    (Array.exists (function Event.Free { addr; _ } -> addr = Engine.addr o | _ -> false)
       (Ormp_util.Vec.to_array r));
  check_int "allocator empty" 0
    (Ormp_memsim.Allocator.live_blocks (Engine.allocator e))

let test_statics_emitted_upfront () =
  let statics = [ { Ormp_memsim.Layout.name = "tbl"; size = 128 } ] in
  let e, r = recording_engine ~statics () in
  check_int "one alloc event at startup" 1 (Array.length (Ormp_util.Vec.to_array r));
  let o = Engine.static e "tbl" in
  check_int "size" 128 (Engine.obj_size o);
  check_bool "address in data segment" true (Engine.addr o >= Config.default.Config.static_base);
  check_bool "unknown static raises" true
    (try
       ignore (Engine.static e "nope");
       false
     with Not_found -> true)

let test_raw_accesses () =
  let e, r = recording_engine () in
  let ld = Engine.instr e ~name:"t.raw" Instr.Load in
  Engine.load_raw e ~instr:ld 0xdeadbeef;
  Engine.store_raw e ~instr:ld ~size:2 0xdeadbef0;
  check_int "two events" 2 (Array.length (Ormp_util.Vec.to_array r))

let test_pool_pieces () =
  let e, r = recording_engine () in
  let site = Engine.instr e ~name:"t.pool" Instr.Alloc_site in
  let ld = Engine.instr e ~name:"t.ld" Instr.Load in
  let pool = Engine.pool_create e ~site 256 in
  check_int "pool creation is one alloc event" 1 (Array.length (Ormp_util.Vec.to_array r));
  let p1 = Engine.pool_piece e ~pool 24 in
  let p2 = Engine.pool_piece e ~pool 24 in
  check_int "pieces emit no probe" 1 (Array.length (Ormp_util.Vec.to_array r));
  check_int "p1 at pool base" (Engine.addr pool) (Engine.addr p1);
  check_int "p2 8-aligned after p1" (Engine.addr pool + 24) (Engine.addr p2);
  Engine.load e ~instr:ld p1 8;
  check_bool "piece access lands inside pool" true
    (Array.exists
       (function
         | Event.Access { addr; _ } ->
           addr >= Engine.addr pool && addr < Engine.addr pool + 256
         | _ -> false)
       (Ormp_util.Vec.to_array r));
  Engine.pool_reset e ~pool;
  let p3 = Engine.pool_piece e ~pool 24 in
  check_int "reset rewinds" (Engine.addr pool) (Engine.addr p3)

let test_pool_misuse () =
  let e, _ = recording_engine () in
  let site = Engine.instr e ~name:"t.alloc" Instr.Alloc_site in
  let o = Engine.alloc e ~site 32 in
  check_bool "piece of non-pool raises" true
    (try
       ignore (Engine.pool_piece e ~pool:o 8);
       false
     with Invalid_argument _ -> true);
  check_bool "reset of non-pool raises" true
    (try
       Engine.pool_reset e ~pool:o;
       false
     with Invalid_argument _ -> true)

let test_pool_exposed_pieces () =
  let e, r = recording_engine () in
  let site = Engine.instr e ~name:"t.pool" Instr.Alloc_site in
  let psite = Engine.instr e ~name:"t.piece" Instr.Alloc_site in
  let pool = Engine.pool_create e ~site ~expose_pieces:true ~pieces_site:psite 256 in
  check_int "pool malloc unprobed" 0 (Array.length (Ormp_util.Vec.to_array r));
  let p1 = Engine.pool_piece e ~pool 24 in
  let _p2 = Engine.pool_piece e ~pool 24 in
  check_int "pieces probed" 2 (Array.length (Ormp_util.Vec.to_array r));
  (match (Ormp_util.Vec.to_array r).(0) with
  | Event.Alloc { site = s; addr; size; _ } ->
    check_int "piece site" psite s;
    check_int "piece addr" (Engine.addr p1) addr;
    check_int "piece size" 24 size
  | _ -> Alcotest.fail "expected piece alloc event");
  Engine.pool_reset e ~pool;
  let frees =
    Array.to_list (Ormp_util.Vec.to_array r)
    |> List.filter (function Event.Free _ -> true | _ -> false)
  in
  check_int "reset frees live pieces" 2 (List.length frees);
  (* after reset, pieces are re-probed from the base again *)
  let p3 = Engine.pool_piece e ~pool 24 in
  check_int "reset rewinds" (Engine.addr pool) (Engine.addr p3)

let test_pool_exposed_validation () =
  let e, _ = recording_engine () in
  let site = Engine.instr e ~name:"t.pool" Instr.Alloc_site in
  check_bool "expose without site rejected" true
    (try
       ignore (Engine.pool_create e ~site ~expose_pieces:true 64);
       false
     with Invalid_argument _ -> true)

let test_pool_exposed_translates_per_piece () =
  (* The OMC must see pieces as distinct objects with serials. *)
  let tuples = ref [] in
  let cdc =
    Ormp_core.Cdc.create
      ~site_name:(Printf.sprintf "s%d")
      ~on_tuple:(fun tu -> tuples := tu :: !tuples)
      ()
  in
  let e =
    Engine.make ~config:Config.default ~sink:(Ormp_core.Cdc.sink cdc) ~statics:[]
  in
  let site = Engine.instr e ~name:"t.pool" Instr.Alloc_site in
  let psite = Engine.instr e ~name:"t.piece" Instr.Alloc_site in
  let ld = Engine.instr e ~name:"t.ld" Instr.Load in
  let pool = Engine.pool_create e ~site ~expose_pieces:true ~pieces_site:psite 256 in
  let p1 = Engine.pool_piece e ~pool 24 in
  let p2 = Engine.pool_piece e ~pool 24 in
  Engine.load e ~instr:ld p1 8;
  Engine.load e ~instr:ld p2 8;
  (match List.rev !tuples with
  | [ t1; t2 ] ->
    check_int "same group" t1.Ormp_core.Tuple.group t2.Ormp_core.Tuple.group;
    check_int "first piece serial" 0 t1.Ormp_core.Tuple.obj;
    check_int "second piece serial" 1 t2.Ormp_core.Tuple.obj;
    check_int "piece-relative offset" 8 t1.Ormp_core.Tuple.offset;
    check_int "piece-relative offset" 8 t2.Ormp_core.Tuple.offset
  | l -> Alcotest.failf "expected 2 tuples, got %d" (List.length l))

let test_pool_exhaustion () =
  let e, _ = recording_engine () in
  let site = Engine.instr e ~name:"t.pool" Instr.Alloc_site in
  let pool = Engine.pool_create e ~site 32 in
  ignore (Engine.pool_piece e ~pool 24);
  check_bool "raises" true
    (try
       ignore (Engine.pool_piece e ~pool 16);
       false
     with Out_of_memory -> true);
  let fresh = Engine.pool_create e ~site 32 in
  check_bool "a piece past the pool's size raises" true
    (try
       ignore (Engine.pool_piece e ~pool:fresh 40);
       false
     with Out_of_memory -> true)

(* Destroying a pool hands its one heap block back, in either mode, with
   pieces still live. *)
let test_pool_destroy_returns_block () =
  let e, _ = recording_engine () in
  let site = Engine.instr e ~name:"t.pool" Instr.Alloc_site in
  let free_site = Engine.instr e ~name:"t.pool_free" Instr.Free_site in
  let psite = Engine.instr e ~name:"t.piece" Instr.Alloc_site in
  let live () = Ormp_memsim.Allocator.live_blocks (Engine.allocator e) in
  let before = live () in
  let pool = Engine.pool_create e ~site 128 in
  let exposed = Engine.pool_create e ~site ~expose_pieces:true ~pieces_site:psite 128 in
  check_int "one block per pool" (before + 2) (live ());
  ignore (Engine.pool_piece e ~pool 24);
  ignore (Engine.pool_piece e ~pool:exposed 24);
  check_int "pieces take no block" (before + 2) (live ());
  Engine.pool_destroy e ~site:free_site ~pool;
  Engine.pool_destroy e ~site:free_site ~pool:exposed;
  check_int "back to the count before pool_create" before (live ())

(* ------------------------------------------------------------------ *)
(* Runner + Config                                                     *)
(* ------------------------------------------------------------------ *)

let tiny =
  Program.make ~name:"tiny" ~description:"two objects, a few accesses" (fun e ->
      let site = Engine.instr e ~name:"tiny.alloc" Instr.Alloc_site in
      let ld = Engine.instr e ~name:"tiny.ld" Instr.Load in
      let st = Engine.instr e ~name:"tiny.st" Instr.Store in
      let a = Engine.alloc e ~site 64 in
      let b = Engine.alloc e ~site 64 in
      for i = 0 to 7 do
        Engine.load e ~instr:ld a (i * 8);
        Engine.store e ~instr:st b (i * 8)
      done)

let run_trace config =
  let r = Ormp_util.Vec.create () in
  ignore (Runner.run ~config tiny (Ormp_util.Vec.push r));
  Ormp_util.Vec.to_array r

let test_runner_deterministic () =
  check_bool "same config, same trace" true (run_trace Config.default = run_trace Config.default)

let test_runner_allocator_changes_addresses () =
  let t0 = run_trace Config.default in
  let t1 = run_trace { Config.default with Config.policy = Ormp_memsim.Allocator.Bump;
                       heap_base = 0x2000_0000 } in
  check_int "same length" (Array.length t0) (Array.length t1);
  check_bool "raw addresses differ" true (t0 <> t1);
  (* but the event *kinds* and instruction ids line up 1:1 *)
  Array.iteri
    (fun i ev ->
      match (ev, t1.(i)) with
      | Event.Access a, Event.Access b ->
        check_int "same instr" a.instr b.instr;
        check_bool "same kind" a.is_store b.is_store
      | Event.Alloc a, Event.Alloc b -> check_int "same site" a.site b.site
      | Event.Free _, Event.Free _ -> ()
      | _ -> Alcotest.fail "event shape mismatch")
    t0

let test_runner_bare () =
  let r = Runner.run_bare tiny in
  check_bool "registered instrs" true (Instr.count r.Runner.table >= 3);
  check_bool "elapsed non-negative" true (r.Runner.elapsed >= 0.0)

let test_config_variants_distinct () =
  let vs = Config.variants Config.default in
  check_int "five variants" 5 (List.length vs);
  let names = List.map Config.name vs in
  check_int "distinct names" 5 (List.length (List.sort_uniq compare names))

let test_workload_seed_in_config () =
  let mk seed =
    let r = Ormp_util.Vec.create () in
    ignore
      (Runner.run
         ~config:{ Config.default with Config.seed }
         (Ormp_workloads.Micro.random_walk ~nodes:16 ~steps:64 ())
         (Ormp_util.Vec.push r));
    Ormp_util.Vec.to_array r
  in
  check_bool "same seed same trace" true (mk 1 = mk 1);
  check_bool "different seed different trace" true (mk 1 <> mk 2)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_vm"
    [
      ( "engine",
        [
          tc "alloc emits probe" test_alloc_emits_probe;
          tc "load/store events" test_load_store_events;
          tc "bounds checked" test_access_bounds_checked;
          tc "free emits probe" test_free_emits_probe_and_recycles;
          tc "statics upfront" test_statics_emitted_upfront;
          tc "raw accesses" test_raw_accesses;
          tc "pool pieces" test_pool_pieces;
          tc "pool misuse" test_pool_misuse;
          tc "pool exposed pieces" test_pool_exposed_pieces;
          tc "pool exposed validation" test_pool_exposed_validation;
          tc "pool exposed translates per piece" test_pool_exposed_translates_per_piece;
          tc "pool exhaustion" test_pool_exhaustion;
          tc "pool destroy returns its block" test_pool_destroy_returns_block;
        ] );
      ( "runner",
        [
          tc "deterministic" test_runner_deterministic;
          tc "allocator changes raw only" test_runner_allocator_changes_addresses;
          tc "bare run" test_runner_bare;
          tc "config variants" test_config_variants_distinct;
          tc "workload seed" test_workload_seed_in_config;
        ] );
    ]
