open Ormp_interval
open Ormp_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok t =
  match Range_index.check_invariants t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariants: " ^ msg)

let test_empty () =
  let t = Range_index.create () in
  check_int "cardinal" 0 (Range_index.cardinal t);
  check_bool "find" true (Range_index.find t 42 = None);
  check_bool "remove" false (Range_index.remove t ~base:42);
  ok t

let test_single_range () =
  let t = Range_index.create () in
  Range_index.insert t ~base:100 ~size:16 "obj";
  check_bool "below" true (Range_index.find t 99 = None);
  check_bool "at base" true (Range_index.find t 100 = Some (100, 16, "obj"));
  check_bool "inside" true (Range_index.find t 115 = Some (100, 16, "obj"));
  check_bool "at end (exclusive)" true (Range_index.find t 116 = None);
  ok t

let test_adjacent_ranges () =
  let t = Range_index.create () in
  Range_index.insert t ~base:0 ~size:10 "a";
  Range_index.insert t ~base:10 ~size:10 "b";
  check_bool "end of a" true (Range_index.find t 9 = Some (0, 10, "a"));
  check_bool "start of b" true (Range_index.find t 10 = Some (10, 10, "b"));
  ok t

let test_overlap_rejected () =
  let t = Range_index.create () in
  Range_index.insert t ~base:100 ~size:16 ();
  let rejects base size =
    check_bool
      (Printf.sprintf "overlap [%d,%d)" base (base + size))
      true
      (try
         Range_index.insert t ~base ~size ();
         false
       with Invalid_argument _ -> true)
  in
  rejects 100 16;
  rejects 90 11;
  rejects 115 5;
  rejects 104 4;
  rejects 90 100;
  ok t

let test_size_positive () =
  let t = Range_index.create () in
  check_bool "zero size rejected" true
    (try
       Range_index.insert t ~base:0 ~size:0 ();
       false
     with Invalid_argument _ -> true)

let test_remove () =
  let t = Range_index.create () in
  Range_index.insert t ~base:0 ~size:10 "a";
  Range_index.insert t ~base:20 ~size:10 "b";
  check_bool "removed" true (Range_index.remove t ~base:0);
  check_bool "gone" true (Range_index.find t 5 = None);
  check_bool "other remains" true (Range_index.find t 25 = Some (20, 10, "b"));
  check_bool "remove non-base address fails" false (Range_index.remove t ~base:25);
  check_int "cardinal" 1 (Range_index.cardinal t);
  ok t

let test_reinsert_after_remove () =
  let t = Range_index.create () in
  Range_index.insert t ~base:0 ~size:10 "a";
  ignore (Range_index.remove t ~base:0);
  Range_index.insert t ~base:5 ~size:10 "b";
  check_bool "new mapping" true (Range_index.find t 7 = Some (5, 10, "b"));
  ok t

let test_iter_order () =
  let t = Range_index.create () in
  List.iter (fun b -> Range_index.insert t ~base:b ~size:2 b) [ 30; 10; 50; 20; 40 ];
  let bases = ref [] in
  Range_index.iter t (fun ~base ~size:_ _ -> bases := base :: !bases);
  Alcotest.(check (list int)) "in-order" [ 10; 20; 30; 40; 50 ] (List.rev !bases)

let test_max_live () =
  let t = Range_index.create () in
  Range_index.insert t ~base:0 ~size:1 ();
  Range_index.insert t ~base:10 ~size:1 ();
  ignore (Range_index.remove t ~base:0);
  Range_index.insert t ~base:20 ~size:1 ();
  check_int "high water" 2 (Range_index.max_live t);
  check_int "cardinal" 2 (Range_index.cardinal t)

let test_many_sequential () =
  let t = Range_index.create () in
  for i = 0 to 999 do
    Range_index.insert t ~base:(i * 16) ~size:16 i
  done;
  ok t;
  for i = 0 to 999 do
    match Range_index.find t ((i * 16) + 7) with
    | Some (_, _, v) -> check_int "payload" i v
    | None -> Alcotest.fail "missing range"
  done;
  for i = 0 to 999 do
    if i mod 2 = 0 then check_bool "removed" true (Range_index.remove t ~base:(i * 16))
  done;
  ok t;
  check_int "remaining" 500 (Range_index.cardinal t)

let test_nearest_queries () =
  let t = Range_index.create () in
  check_bool "below on empty" true (Range_index.find_nearest_below t 50 = None);
  check_bool "above on empty" true (Range_index.find_nearest_above t 50 = None);
  List.iter (fun b -> Range_index.insert t ~base:b ~size:8 b) [ 10; 40; 100 ];
  (* Below: greatest base <= addr, containment not required. *)
  check_bool "below between ranges" true
    (Range_index.find_nearest_below t 60 = Some (40, 8, 40));
  check_bool "below inside a range" true
    (Range_index.find_nearest_below t 43 = Some (40, 8, 40));
  check_bool "below at a base" true (Range_index.find_nearest_below t 40 = Some (40, 8, 40));
  check_bool "below everything" true (Range_index.find_nearest_below t 9 = None);
  check_bool "below past the top" true
    (Range_index.find_nearest_below t 10_000 = Some (100, 8, 100));
  (* Above: least base > addr, strictly. *)
  check_bool "above between ranges" true
    (Range_index.find_nearest_above t 60 = Some (100, 8, 100));
  check_bool "above at a base is strict" true
    (Range_index.find_nearest_above t 40 = Some (100, 8, 100));
  check_bool "above from below everything" true
    (Range_index.find_nearest_above t 0 = Some (10, 8, 10));
  check_bool "above past the top" true (Range_index.find_nearest_above t 100 = None);
  ok t

(* Nearest queries against the naive model under random churn. *)
let prop_nearest_model =
  QCheck.Test.make ~name:"nearest queries agree with naive model" ~count:300
    QCheck.(pair (int_range 1 1000) (int_range 1 60))
    (fun (seed, queries) ->
      let rng = Prng.create ~seed in
      let t = Range_index.create () in
      let model = ref [] in
      for _ = 1 to 60 do
        let base = Prng.int rng 50 * 10 in
        if Prng.chance rng 0.6 then begin
          if not (List.exists (fun (b, _) -> b < base + 8 && base < b + 8) !model) then begin
            Range_index.insert t ~base ~size:8 base;
            model := (base, 8) :: !model
          end
        end
        else if List.mem_assoc base !model then begin
          ignore (Range_index.remove t ~base);
          model := List.remove_assoc base !model
        end
      done;
      let below addr =
        List.filter (fun (b, _) -> b <= addr) !model
        |> List.fold_left (fun acc (b, s) ->
               match acc with Some (b', _, _) when b' >= b -> acc | _ -> Some (b, s, b))
             None
      and above addr =
        List.filter (fun (b, _) -> b > addr) !model
        |> List.fold_left (fun acc (b, s) ->
               match acc with Some (b', _, _) when b' <= b -> acc | _ -> Some (b, s, b))
             None
      in
      let agree = ref true in
      for _ = 1 to queries do
        let addr = Prng.int rng 600 in
        if Range_index.find_nearest_below t addr <> below addr then agree := false;
        if Range_index.find_nearest_above t addr <> above addr then agree := false
      done;
      !agree)

(* Model-based property test: the index must agree with a naive association
   list under a random schedule of inserts, removes and queries. *)
let prop_model =
  let gen = QCheck.(list (pair (int_range 0 3) (int_range 0 60))) in
  QCheck.Test.make ~name:"range index agrees with naive model" ~count:300 gen (fun ops ->
      let t = Range_index.create () in
      let model = ref [] in
      let overlaps b1 s1 (b2, s2, _) = b1 < b2 + s2 && b2 < b1 + s1 in
      let rng = Prng.create ~seed:1 in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 | 1 ->
            let size = 1 + Prng.int rng 8 in
            if not (List.exists (overlaps x size) !model) then begin
              Range_index.insert t ~base:x ~size x;
              model := (x, size, x) :: !model
            end
            else (
              (* must reject *)
              try
                Range_index.insert t ~base:x ~size x;
                raise Exit
              with Invalid_argument _ -> ())
          | 2 ->
            let expected = List.exists (fun (b, _, _) -> b = x) !model in
            let got = Range_index.remove t ~base:x in
            if expected <> got then raise Exit;
            model := List.filter (fun (b, _, _) -> b <> x) !model
          | _ ->
            let expected =
              List.find_opt (fun (b, s, _) -> x >= b && x < b + s) !model
              |> Option.map (fun (b, s, v) -> (b, s, v))
            in
            if Range_index.find t x <> expected then raise Exit)
        ops;
      (match Range_index.check_invariants t with Ok () -> () | Error _ -> raise Exit);
      true)

let prop_balance =
  QCheck.Test.make ~name:"stays balanced under random churn" ~count:50
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let t = Range_index.create () in
      let live = Hashtbl.create 64 in
      for _ = 1 to 500 do
        if Prng.chance rng 0.7 || Hashtbl.length live = 0 then begin
          let base = Prng.int rng 100000 * 16 in
          if not (Hashtbl.mem live base) then begin
            Range_index.insert t ~base ~size:16 ();
            Hashtbl.replace live base ()
          end
        end
        else begin
          let keys = Hashtbl.fold (fun k () acc -> k :: acc) live [] in
          let k = List.nth keys (Prng.int rng (List.length keys)) in
          ignore (Range_index.remove t ~base:k);
          Hashtbl.remove live k
        end
      done;
      match Range_index.check_invariants t with Ok () -> true | Error _ -> false)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_interval"
    [
      ( "range_index",
        [
          tc "empty" test_empty;
          tc "single range" test_single_range;
          tc "adjacent ranges" test_adjacent_ranges;
          tc "overlap rejected" test_overlap_rejected;
          tc "size must be positive" test_size_positive;
          tc "remove" test_remove;
          tc "reinsert after remove" test_reinsert_after_remove;
          tc "iter order" test_iter_order;
          tc "max live" test_max_live;
          tc "many sequential" test_many_sequential;
          tc "nearest queries" test_nearest_queries;
          QCheck_alcotest.to_alcotest prop_nearest_model;
          QCheck_alcotest.to_alcotest prop_model;
          QCheck_alcotest.to_alcotest prop_balance;
        ] );
    ]
