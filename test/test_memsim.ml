open Ormp_memsim
open Ormp_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok a =
  match Allocator.check_no_overlap a with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("allocator invariants: " ^ msg)

let policies = Allocator.all_policies

let each_policy f = List.iter (fun p -> f (Allocator.policy_name p) p) policies

(* ------------------------------------------------------------------ *)
(* Allocators                                                          *)
(* ------------------------------------------------------------------ *)

let test_alloc_basic () =
  each_policy (fun name p ->
      let a = Allocator.create p in
      let b1 = Allocator.alloc a 64 in
      let b2 = Allocator.alloc a 64 in
      check_bool (name ^ ": distinct blocks") true (b1 <> b2);
      check_int (name ^ ": live blocks") 2 (Allocator.live_blocks a);
      check_int (name ^ ": live bytes") 128 (Allocator.live_bytes a);
      check_int (name ^ ": total allocs") 2 (Allocator.total_allocs a);
      ok a)

let test_alloc_alignment () =
  each_policy (fun name p ->
      let a = Allocator.create ~align:16 p in
      for _ = 1 to 50 do
        let b = Allocator.alloc a 24 in
        check_int (name ^ ": aligned") 0 (b mod 16)
      done;
      ok a)

let test_size_of () =
  each_policy (fun name p ->
      let a = Allocator.create p in
      let b = Allocator.alloc a 40 in
      check_bool (name ^ ": size recorded") true (Allocator.size_of a b = Some 40);
      check_bool (name ^ ": interior not a base") true (Allocator.size_of a (b + 8) = None))

let test_free_and_errors () =
  each_policy (fun name p ->
      let a = Allocator.create p in
      let b = Allocator.alloc a 32 in
      Allocator.free a b;
      check_int (name ^ ": live after free") 0 (Allocator.live_blocks a);
      check_bool (name ^ ": double free rejected") true
        (try
           Allocator.free a b;
           false
         with Invalid_argument _ -> true);
      check_bool (name ^ ": bogus free rejected") true
        (try
           Allocator.free a 0xdead0;
           false
         with Invalid_argument _ -> true))

let test_alloc_size_validation () =
  let a = Allocator.create Allocator.Bump in
  check_bool "zero size rejected" true
    (try
       ignore (Allocator.alloc a 0);
       false
     with Invalid_argument _ -> true)

let test_first_fit_reuses_low_addresses () =
  let a = Allocator.create Allocator.First_fit in
  let b1 = Allocator.alloc a 64 in
  let _b2 = Allocator.alloc a 64 in
  Allocator.free a b1;
  let b3 = Allocator.alloc a 64 in
  check_int "hole reused" b1 b3

let test_first_fit_splits_holes () =
  let a = Allocator.create Allocator.First_fit in
  let b1 = Allocator.alloc a 128 in
  let _guard = Allocator.alloc a 16 in
  Allocator.free a b1;
  let small = Allocator.alloc a 32 in
  let rest = Allocator.alloc a 64 in
  check_int "front of hole" b1 small;
  check_bool "remainder inside old hole" true (rest > b1 && rest < b1 + 128);
  ok a

let test_first_fit_coalesces () =
  let a = Allocator.create Allocator.First_fit in
  let b1 = Allocator.alloc a 64 in
  let b2 = Allocator.alloc a 64 in
  let _guard = Allocator.alloc a 16 in
  Allocator.free a b1;
  Allocator.free a b2;
  (* Coalesced hole must fit a block bigger than either fragment. *)
  let big = Allocator.alloc a 100 in
  check_int "coalesced" b1 big;
  ok a

let test_best_fit_prefers_tight_hole () =
  let a = Allocator.create Allocator.Best_fit in
  let big = Allocator.alloc a 256 in
  let _g1 = Allocator.alloc a 16 in
  let small = Allocator.alloc a 32 in
  let _g2 = Allocator.alloc a 16 in
  Allocator.free a big;
  Allocator.free a small;
  (* A 32-byte request must take the tight 32-byte hole, not the 256. *)
  check_int "tight hole" small (Allocator.alloc a 32);
  ok a

let test_bump_never_reuses () =
  let a = Allocator.create Allocator.Bump in
  let b1 = Allocator.alloc a 64 in
  Allocator.free a b1;
  let b2 = Allocator.alloc a 64 in
  check_bool "arena does not recycle" true (b2 > b1)

let test_segregated_recycles_class () =
  let a = Allocator.create Allocator.Segregated in
  let b1 = Allocator.alloc a 48 in
  Allocator.free a b1;
  let b2 = Allocator.alloc a 50 in
  (* same 64-byte class *)
  check_int "class block recycled" b1 b2;
  ok a

let test_randomized_is_scattered () =
  let a = Allocator.create (Allocator.Randomized 3) in
  let b1 = Allocator.alloc a 64 in
  let b2 = Allocator.alloc a 64 in
  check_bool "not adjacent" true (abs (b2 - b1) > 64);
  ok a

let test_randomized_seed_determinism () =
  let run seed =
    let a = Allocator.create (Allocator.Randomized seed) in
    List.init 20 (fun _ -> Allocator.alloc a 32)
  in
  check_bool "same seed, same layout" true (run 5 = run 5);
  check_bool "different seed, different layout" true (run 5 <> run 6)

let test_out_of_memory () =
  let a = Allocator.create ~limit:256 Allocator.Bump in
  check_bool "raises Out_of_memory" true
    (try
       for _ = 1 to 100 do
         ignore (Allocator.alloc a 64)
       done;
       false
     with Out_of_memory -> true)

let prop_no_overlap_under_churn =
  QCheck.Test.make ~name:"all policies: live blocks never overlap under churn" ~count:60
    QCheck.(pair (int_range 0 4) (int_range 1 10000))
    (fun (pi, seed) ->
      let policy = List.nth policies pi in
      let a = Allocator.create policy in
      let rng = Prng.create ~seed in
      let live = ref [] in
      for _ = 1 to 300 do
        if Prng.chance rng 0.65 || !live = [] then begin
          let size = 8 * (1 + Prng.int rng 32) in
          let b = Allocator.alloc a size in
          live := b :: !live
        end
        else begin
          let i = Prng.int rng (List.length !live) in
          let b = List.nth !live i in
          Allocator.free a b;
          live := List.filteri (fun j _ -> j <> i) !live
        end
      done;
      match Allocator.check_no_overlap a with Ok () -> true | Error _ -> false)

let prop_live_bytes_accounting =
  QCheck.Test.make ~name:"live bytes tracks allocations minus frees" ~count:60
    QCheck.(pair (int_range 0 4) (small_list (int_range 1 100)))
    (fun (pi, sizes) ->
      let a = Allocator.create (List.nth policies pi) in
      let blocks = List.map (fun s -> (Allocator.alloc a s, s)) sizes in
      let total = List.fold_left ( + ) 0 sizes in
      let before = Allocator.live_bytes a = total in
      List.iter (fun (b, _) -> Allocator.free a b) blocks;
      before && Allocator.live_bytes a = 0)

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let entries = [ { Layout.name = "a"; size = 10 }; { Layout.name = "b"; size = 24 } ]

let test_layout_basic () =
  let ps = Layout.assign ~base:1000 ~align:8 entries in
  let lookup name = List.find (fun p -> p.Layout.entry.Layout.name = name) ps in
  let a = lookup "a" and b = lookup "b" in
  check_int "a at base" 1000 a.Layout.address;
  check_int "b aligned past a" 1016 b.Layout.address;
  check_int "segment end" (1016 + 24) (Layout.segment_end ps)

let test_layout_gap_shifts () =
  let p0 = Layout.assign ~base:1000 entries in
  let p1 = Layout.assign ~base:1000 ~gap:32 entries in
  let b ps = List.find (fun p -> p.Layout.entry.Layout.name = "b") ps in
  check_bool "gap moves later objects" true ((b p1).Layout.address > (b p0).Layout.address)

let test_layout_base_shifts_everything () =
  let p0 = Layout.assign ~base:1000 entries in
  let p1 = Layout.assign ~base:2000 entries in
  List.iter2
    (fun a b -> check_int "uniform shift" 1000 (b.Layout.address - a.Layout.address))
    p0 p1

let test_layout_no_overlap () =
  let sizes = [ 3; 17; 1; 64; 9 ] in
  let es = List.mapi (fun i s -> { Layout.name = string_of_int i; size = s }) sizes in
  let ps = Layout.assign es in
  let rec pairwise = function
    | [] -> ()
    | p :: rest ->
      List.iter
        (fun q ->
          let disjoint =
            p.Layout.address + p.Layout.entry.Layout.size <= q.Layout.address
            || q.Layout.address + q.Layout.entry.Layout.size <= p.Layout.address
          in
          check_bool "placements disjoint" true disjoint)
        rest;
      pairwise rest
  in
  pairwise ps

let test_layout_validation () =
  check_bool "bad size rejected" true
    (try
       ignore (Layout.assign [ { Layout.name = "x"; size = 0 } ]);
       false
     with Invalid_argument _ -> true)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_memsim"
    [
      ( "allocator",
        [
          tc "basic alloc" test_alloc_basic;
          tc "alignment" test_alloc_alignment;
          tc "size_of" test_size_of;
          tc "free and errors" test_free_and_errors;
          tc "size validation" test_alloc_size_validation;
          tc "first-fit reuse" test_first_fit_reuses_low_addresses;
          tc "first-fit splits holes" test_first_fit_splits_holes;
          tc "first-fit coalesces" test_first_fit_coalesces;
          tc "best-fit tight hole" test_best_fit_prefers_tight_hole;
          tc "bump never reuses" test_bump_never_reuses;
          tc "segregated recycles class" test_segregated_recycles_class;
          tc "randomized scatters" test_randomized_is_scattered;
          tc "randomized seeded" test_randomized_seed_determinism;
          tc "out of memory" test_out_of_memory;
          QCheck_alcotest.to_alcotest prop_no_overlap_under_churn;
          QCheck_alcotest.to_alcotest prop_live_bytes_accounting;
        ] );
      ( "layout",
        [
          tc "basic" test_layout_basic;
          tc "gap shifts" test_layout_gap_shifts;
          tc "base shifts everything" test_layout_base_shifts_everything;
          tc "no overlap" test_layout_no_overlap;
          tc "validation" test_layout_validation;
        ] );
    ]
