open Ormp_workloads
open Ormp_vm
open Ormp_trace

let check_bool = Alcotest.(check bool)

let run_events ?(config = Config.default) program =
  let r = Ormp_util.Vec.create () in
  ignore (Runner.run ~config program (Ormp_util.Vec.push r));
  Ormp_util.Vec.to_array r

let count f events = Array.fold_left (fun n ev -> if f ev then n + 1 else n) 0 events

let all_programs =
  List.map (fun e -> (e.Registry.name, Registry.program e)) Registry.spec
  @ List.map (fun (n, p) -> ("micro." ^ n, p)) Micro.all

(* ------------------------------------------------------------------ *)
(* Generic properties over every workload                              *)
(* ------------------------------------------------------------------ *)

let test_all_produce_accesses () =
  List.iter
    (fun (name, p) ->
      let r = run_events p in
      check_bool (name ^ ": has accesses") true (count Event.is_access r > 1000))
    all_programs

let test_all_deterministic () =
  List.iter
    (fun (name, p) ->
      let a = run_events p in
      let b = run_events p in
      check_bool (name ^ ": reproducible") true (a = b))
    all_programs

let test_all_have_loads_and_stores () =
  List.iter
    (fun (name, p) ->
      let r = run_events p in
      let has f = count f r > 0 in
      check_bool (name ^ ": loads") true
        (has (function Event.Access { is_store = false; _ } -> true | _ -> false));
      check_bool (name ^ ": stores") true
        (has (function Event.Access { is_store = true; _ } -> true | _ -> false));
      check_bool (name ^ ": allocs") true (has (function Event.Alloc _ -> true | _ -> false)))
    all_programs

(* The paper's core premise, checked end-to-end for every workload: the
   object-relative stream is identical under every allocator/layout
   variant while raw addresses change. *)
let or_stream config p =
  let tuples = ref [] in
  let cdc =
    Ormp_core.Cdc.create
      ~site_name:(Printf.sprintf "s%d")
      ~on_tuple:(fun (tu : Ormp_core.Tuple.t) ->
        tuples := (tu.instr, tu.group, tu.obj, tu.offset) :: !tuples)
      ()
  in
  ignore (Runner.run ~config p (Ormp_core.Cdc.sink cdc));
  !tuples

let raw_stream config p =
  let addrs = ref [] in
  let sink = function
    | Event.Access { addr; _ } -> addrs := addr :: !addrs
    | _ -> ()
  in
  ignore (Runner.run ~config p sink);
  !addrs

let test_object_relative_invariance_all () =
  List.iter
    (fun (name, p) ->
      let base = or_stream Config.default p in
      List.iter
        (fun c ->
          check_bool
            (name ^ ": object-relative invariant under " ^ Config.name c)
            true
            (or_stream c p = base))
        (List.tl (Config.variants Config.default)))
    all_programs

let test_raw_streams_vary () =
  List.iter
    (fun (name, p) ->
      let base = raw_stream Config.default p in
      let bump =
        raw_stream
          { Config.default with
            Config.policy = Ormp_memsim.Allocator.Bump;
            heap_base = 0x3000_0000
          }
          p
      in
      check_bool (name ^ ": raw streams differ across allocators") true (base <> bump))
    all_programs

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_spec_order () =
  Alcotest.(check (list string))
    "Table 1 order"
    [
      "164.gzip-like";
      "175.vpr-like";
      "181.mcf-like";
      "186.crafty-like";
      "197.parser-like";
      "256.bzip2-like";
      "300.twolf-like";
    ]
    (List.map (fun e -> e.Registry.name) Registry.spec)

let test_registry_find () =
  check_bool "by name" true ((Registry.find "181.mcf-like").Registry.spec_ref = "181.mcf");
  check_bool "by spec ref" true ((Registry.find "181.mcf").Registry.name = "181.mcf-like");
  check_bool "missing raises" true
    (try
       ignore (Registry.find "999.nope");
       false
     with Not_found -> true)

let test_registry_bench_scale_is_bigger () =
  List.iter
    (fun e ->
      check_bool
        (e.Registry.name ^ ": bench > default")
        true
        (e.Registry.bench_scale > e.Registry.default_scale))
    Registry.spec

(* ------------------------------------------------------------------ *)
(* Per-workload character checks (what drives the paper's tables)      *)
(* ------------------------------------------------------------------ *)

let capture name = Ormp_leap.Leap.accesses_captured (Ormp_leap.Leap.profile
  (Registry.program (Registry.find name)))

let test_mcf_is_irregular () =
  check_bool "mcf capture low (pointer chasing)" true (capture "181.mcf" < 0.25)

let test_twolf_is_regular_within_objects () =
  check_bool "twolf capture high (fixed field offsets)" true (capture "300.twolf" > 0.5)

let test_parser_uses_custom_pool () =
  (* The pool appears as a single object (§3.1 footnote): all pieces of all
     sentences translate into one (group, object). *)
  let p = Ormp_leap.Leap.profile (Registry.program (Registry.find "197.parser")) in
  let pool_groups =
    List.filter
      (fun (k, (s : Ormp_leap.Leap.stream)) ->
        ignore k;
        (* streams whose object dimension never moves: single object *)
        List.for_all
          (fun (d : Ormp_lmad.Lmad.t) ->
            List.for_all (fun (l : Ormp_lmad.Lmad.level) -> l.Ormp_lmad.Lmad.stride.(0) = 0)
              d.Ormp_lmad.Lmad.levels)
          (Ormp_lmad.Compressor.lmads s.Ormp_leap.Leap.comp))
      p.Ormp_leap.Leap.streams
  in
  check_bool "most streams stay within one object" true
    (List.length pool_groups > List.length p.Ormp_leap.Leap.streams / 2)

let test_linked_list_fields () =
  (* Figure 3: both load instructions hit fixed offsets (0 and 8) within
     group-0 objects. *)
  let r = run_events (Micro.linked_list ~nodes:8 ~sweeps:2 ()) in
  let offsets = Hashtbl.create 8 in
  let bases = Hashtbl.create 8 in
  Array.iter
    (function
      | Event.Alloc { addr; size = 16; _ } -> Hashtbl.replace bases addr ()
      | _ -> ())
    r;
  Array.iter
    (function
      | Event.Access { instr; addr; _ } ->
        Hashtbl.iter
          (fun base () -> if addr >= base && addr < base + 16 then
              Hashtbl.replace offsets instr (addr - base))
          bases
      | _ -> ())
    r;
  Hashtbl.iter
    (fun _ off -> check_bool "field offsets only" true (off = 0 || off = 8))
    offsets

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_workloads"
    [
      ( "generic",
        [
          tc "all produce accesses" test_all_produce_accesses;
          tc "all deterministic" test_all_deterministic;
          tc "all have loads+stores+allocs" test_all_have_loads_and_stores;
          Alcotest.test_case "object-relative invariance (all workloads, all configs)" `Slow
            test_object_relative_invariance_all;
          tc "raw streams vary" test_raw_streams_vary;
        ] );
      ( "registry",
        [
          tc "spec order" test_registry_spec_order;
          tc "find" test_registry_find;
          tc "bench scale bigger" test_registry_bench_scale_is_bigger;
        ] );
      ( "character",
        [
          tc "mcf irregular" test_mcf_is_irregular;
          tc "twolf regular within objects" test_twolf_is_regular_within_objects;
          tc "parser pool is one object" test_parser_uses_custom_pool;
          tc "linked list fields" test_linked_list_fields;
        ] );
    ]
