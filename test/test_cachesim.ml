open Ormp_cachesim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tiny = { Cache.size_bytes = 1024; line_bytes = 64; ways = 2 }
(* 1024 / (64*2) = 8 sets *)

let test_geometry_validation () =
  let rejects c =
    try
      ignore (Cache.create c);
      false
    with Invalid_argument _ -> true
  in
  check_bool "non-pow2 line" true (rejects { Cache.size_bytes = 1024; line_bytes = 48; ways = 2 });
  check_bool "zero ways" true (rejects { Cache.size_bytes = 1024; line_bytes = 64; ways = 0 });
  check_bool "non-pow2 sets" true (rejects { Cache.size_bytes = 192; line_bytes = 64; ways = 1 });
  check_bool "preset ok" true
    (ignore (Cache.create Cache.l1d);
     true)

let test_cold_miss_then_hit () =
  let c = Cache.create tiny in
  check_bool "cold miss" false (Cache.access c ~addr:0x1000 ~size:8);
  check_bool "hit" true (Cache.access c ~addr:0x1000 ~size:8);
  check_bool "same line hit" true (Cache.access c ~addr:0x1038 ~size:8);
  check_bool "next line misses" false (Cache.access c ~addr:0x1040 ~size:8);
  check_int "accesses" 4 (Cache.accesses c);
  check_int "hits" 2 (Cache.hits c);
  check_int "misses" 2 (Cache.misses c)

let test_straddling_access () =
  let c = Cache.create tiny in
  (* 16 bytes starting 8 before a line boundary touch two lines *)
  check_bool "double cold miss" false (Cache.access c ~addr:(0x1040 - 8) ~size:16);
  check_bool "first line now present" true (Cache.access c ~addr:0x1000 ~size:8);
  check_bool "second line now present" true (Cache.access c ~addr:0x1040 ~size:8)

let test_associativity_and_lru () =
  let c = Cache.create tiny in
  (* Three lines mapping to the same set (stride = sets * line = 512). *)
  let a = 0x2000 and b = 0x2000 + 512 and d = 0x2000 + 1024 in
  ignore (Cache.access c ~addr:a ~size:8);
  ignore (Cache.access c ~addr:b ~size:8);
  check_bool "both ways resident" true (Cache.access c ~addr:a ~size:8);
  (* Insert a third line: evicts LRU = b. *)
  ignore (Cache.access c ~addr:d ~size:8);
  check_bool "a still resident" true (Cache.access c ~addr:a ~size:8);
  check_bool "b evicted" false (Cache.access c ~addr:b ~size:8)

let test_miss_rate () =
  let c = Cache.create tiny in
  Alcotest.(check (float 1e-9)) "idle" 0.0 (Cache.miss_rate c);
  ignore (Cache.access c ~addr:0 ~size:8);
  ignore (Cache.access c ~addr:0 ~size:8);
  Alcotest.(check (float 1e-9)) "one of two" 0.5 (Cache.miss_rate c)

let test_sequential_vs_scattered () =
  (* Sequential sweeps enjoy line reuse; random accesses over a large
     footprint do not. *)
  let run f =
    let c = Cache.create tiny in
    f c;
    Cache.miss_rate c
  in
  let seq =
    run (fun c ->
        for i = 0 to 4095 do
          ignore (Cache.access c ~addr:(i * 8) ~size:8)
        done)
  in
  let rng = Ormp_util.Prng.create ~seed:9 in
  let scattered =
    run (fun c ->
        for _ = 0 to 4095 do
          ignore (Cache.access c ~addr:(Ormp_util.Prng.int rng (1 lsl 20) * 8) ~size:8)
        done)
  in
  check_bool "sequential ~1/8 miss rate" true (seq < 0.2);
  check_bool "scattered ~all misses" true (scattered > 0.9)

(* Reference model: each set is a most-recently-used-first list of line
   ids; hit iff present, insert/move-to-front, truncate to associativity. *)
let reference_model cfg accesses =
  let sets = cfg.Cache.size_bytes / (cfg.Cache.line_bytes * cfg.Cache.ways) in
  let state = Array.make sets [] in
  List.map
    (fun (addr, size) ->
      let first = addr / cfg.Cache.line_bytes in
      let last = (addr + size - 1) / cfg.Cache.line_bytes in
      let hit = ref true in
      for line = first to last do
        let set = line mod sets in
        let present = List.mem line state.(set) in
        if not present then hit := false;
        let rest = List.filter (fun l -> l <> line) state.(set) in
        state.(set) <- line :: List.filteri (fun i _ -> i < cfg.Cache.ways - 1) rest
      done;
      !hit)
    accesses

let prop_matches_reference_model =
  QCheck.Test.make ~name:"set-associative LRU matches the reference model" ~count:200
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(int_range 0 200) (pair (int_range 0 4096) (int_range 1 16))))
    (fun (ways_exp, raw) ->
      let cfg = { Cache.size_bytes = 1024; line_bytes = 32; ways = 1 lsl (ways_exp - 1) } in
      let accesses = List.map (fun (a, s) -> (a * 8, s)) raw in
      let c = Cache.create cfg in
      let got = List.map (fun (addr, size) -> Cache.access c ~addr ~size) accesses in
      got = reference_model cfg accesses)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_cachesim"
    [
      ( "cache",
        [
          tc "geometry validation" test_geometry_validation;
          tc "cold miss then hit" test_cold_miss_then_hit;
          tc "straddling access" test_straddling_access;
          tc "associativity and LRU" test_associativity_and_lru;
          tc "miss rate" test_miss_rate;
          tc "sequential vs scattered" test_sequential_vs_scattered;
          QCheck_alcotest.to_alcotest prop_matches_reference_model;
        ] );
    ]
