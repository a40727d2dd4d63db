open Ormp_util

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next a <> Prng.next b then differs := true
  done;
  check_bool "different seeds differ" true !differs

let test_prng_int_bounds () =
  let t = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int t 13 in
    check_bool "in range" true (v >= 0 && v < 13)
  done

let test_prng_int_in_bounds () =
  let t = Prng.create ~seed:8 in
  for _ = 1 to 1000 do
    let v = Prng.int_in t (-5) 5 in
    check_bool "in range" true (v >= -5 && v <= 5)
  done

let test_prng_int_covers () =
  let t = Prng.create ~seed:9 in
  let seen = Array.make 6 false in
  for _ = 1 to 500 do
    seen.(Prng.int t 6) <- true
  done;
  Array.iteri (fun i s -> check_bool (Printf.sprintf "value %d seen" i) true s) seen

let test_prng_float_bounds () =
  let t = Prng.create ~seed:10 in
  for _ = 1 to 1000 do
    let v = Prng.float t 3.5 in
    check_bool "in range" true (v >= 0.0 && v < 3.5)
  done

let test_prng_chance_extremes () =
  let t = Prng.create ~seed:11 in
  for _ = 1 to 100 do
    check_bool "p=1 always true" true (Prng.chance t 1.0)
  done;
  for _ = 1 to 100 do
    check_bool "p=0 never true" false (Prng.chance t 0.0)
  done

let test_prng_shuffle_permutes () =
  let t = Prng.create ~seed:12 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_prng_invalid_args () =
  let t = Prng.create ~seed:16 in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int t 0));
  Alcotest.check_raises "int_in inverted" (Invalid_argument "Prng.int_in: lo > hi") (fun () ->
      ignore (Prng.int_in t 3 2))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "mean empty" 0.0 (Stats.mean [])

let test_stats_median () =
  check_float "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  check_float "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check_float "empty" 0.0 (Stats.median [])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50.0 (Stats.percentile xs 50.0);
  check_float "p100" 100.0 (Stats.percentile xs 100.0);
  check_float "p1" 1.0 (Stats.percentile xs 1.0)

(* Small unsorted input, as the client's ack latencies arrive. *)
let test_stats_percentile_nearest_rank () =
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  check_float "p50" 3.0 (Stats.percentile xs 50.0);
  check_float "p99" 5.0 (Stats.percentile xs 99.0);
  check_float "empty" 0.0 (Stats.percentile [] 99.0)

let test_stats_gcd () =
  check_int "gcd" 6 (Stats.gcd 12 18);
  check_int "gcd with zero" 5 (Stats.gcd 0 5);
  check_int "gcd both zero" 0 (Stats.gcd 0 0);
  check_int "gcd negatives" 4 (Stats.gcd (-8) 12)

let test_stats_egcd () =
  let check_egcd a b =
    let g, x, y = Stats.egcd a b in
    check_int (Printf.sprintf "egcd %d %d gcd" a b) (Stats.gcd a b) g;
    check_int (Printf.sprintf "egcd %d %d bezout" a b) g ((a * x) + (b * y))
  in
  List.iter
    (fun (a, b) -> check_egcd a b)
    [ (12, 18); (18, 12); (1, 1); (0, 7); (7, 0); (-12, 18); (12, -18); (-5, -15); (17, 31) ]

let test_stats_divisions () =
  check_int "fdiv pos" 2 (Stats.fdiv 7 3);
  check_int "fdiv neg" (-3) (Stats.fdiv (-7) 3);
  check_int "cdiv pos" 3 (Stats.cdiv 7 3);
  check_int "cdiv neg" (-2) (Stats.cdiv (-7) 3);
  check_int "fdiv exact" (-2) (Stats.fdiv (-6) 3);
  check_int "cdiv exact" (-2) (Stats.cdiv (-6) 3)

let prop_fdiv_cdiv =
  QCheck.Test.make ~name:"fdiv/cdiv bracket the rational quotient" ~count:500
    QCheck.(pair (int_range (-10000) 10000) (int_range 1 100))
    (fun (a, b) ->
      let f = Stats.fdiv a b and c = Stats.cdiv a b in
      f * b <= a && a <= c * b && c - f <= 1)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_hist_uniform_buckets () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:5 in
  Histogram.add h 0.5;
  Histogram.add h 2.5;
  Histogram.add h 9.9;
  Alcotest.(check (array int)) "counts" [| 1; 1; 0; 0; 1 |] (Histogram.counts h);
  check_int "total" 3 (Histogram.total h)

let test_hist_clamping () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:2 in
  Histogram.add h (-100.0);
  Histogram.add h 100.0;
  Alcotest.(check (array int)) "clamped to edges" [| 1; 1 |] (Histogram.counts h)

let test_hist_centered_zero () =
  let h = Histogram.centered ~half_width:100.0 ~half_buckets:10 in
  check_int "zero bucket is center" 10 (Histogram.bucket_of h 0.0);
  Histogram.add h 0.0;
  check_int "center count" 1 (Histogram.counts h).(10)

let test_hist_centered_sides () =
  let h = Histogram.centered ~half_width:100.0 ~half_buckets:10 in
  check_int "small positive" 11 (Histogram.bucket_of h 5.0);
  check_int "exactly 10" 11 (Histogram.bucket_of h 10.0);
  check_int "just above 10" 12 (Histogram.bucket_of h 10.5);
  check_int "small negative" 9 (Histogram.bucket_of h (-5.0));
  check_int "-100 clamps to 0" 0 (Histogram.bucket_of h (-100.0));
  check_int "+100 clamps to last" 20 (Histogram.bucket_of h 100.0);
  check_int "overflow clamps" 20 (Histogram.bucket_of h 9999.0)

let test_hist_fractions () =
  let h = Histogram.create ~lo:0.0 ~hi:4.0 ~buckets:2 in
  Histogram.add_n h 1.0 3;
  Histogram.add h 3.0;
  let f = Histogram.fractions h in
  check_float "left" 0.75 f.(0);
  check_float "right" 0.25 f.(1)

let test_hist_fractions_empty () =
  let h = Histogram.create ~lo:0.0 ~hi:4.0 ~buckets:2 in
  Alcotest.(check (array (float 0.0))) "all zero" [| 0.0; 0.0 |] (Histogram.fractions h)

let test_hist_merge () =
  let a = Histogram.centered ~half_width:10.0 ~half_buckets:2 in
  let b = Histogram.centered ~half_width:10.0 ~half_buckets:2 in
  Histogram.add a 0.0;
  Histogram.add b 7.0;
  let m = Histogram.merge a b in
  check_int "total" 2 (Histogram.total m);
  check_int "center" 1 (Histogram.counts m).(2)

let test_hist_merge_mismatch () =
  let a = Histogram.centered ~half_width:10.0 ~half_buckets:2 in
  let b = Histogram.centered ~half_width:10.0 ~half_buckets:3 in
  check_bool "raises" true
    (try
       ignore (Histogram.merge a b);
       false
     with Invalid_argument _ -> true)

let test_hist_labels () =
  let h = Histogram.centered ~half_width:20.0 ~half_buckets:2 in
  let l = Histogram.labels h in
  Alcotest.(check string) "center label" "0" l.(2);
  Alcotest.(check string) "right label" "(0,10]" l.(3);
  Alcotest.(check string) "left label" "[-10,0)" l.(1)

let prop_hist_total =
  QCheck.Test.make ~name:"histogram total equals samples added" ~count:200
    QCheck.(list (float_range (-200.0) 200.0))
    (fun xs ->
      let h = Histogram.centered ~half_width:100.0 ~half_buckets:10 in
      List.iter (Histogram.add h) xs;
      Histogram.total h = List.length xs
      && Array.fold_left ( + ) 0 (Histogram.counts h) = List.length xs)

let test_hist_bucket_bounds_uniform () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:5 in
  let lo, hi = Histogram.bucket_bounds h 0 in
  check_float "first lo" 0.0 lo;
  check_float "first hi" 2.0 hi;
  let lo, hi = Histogram.bucket_bounds h 4 in
  check_float "last lo" 8.0 lo;
  check_float "last hi" 10.0 hi;
  check_bool "out of range raises" true
    (try
       ignore (Histogram.bucket_bounds h 5);
       false
     with Invalid_argument _ -> true)

(* The edge buckets of a centered layout: values exactly on a k*w
   boundary belong to the bucket whose upper bound they are (labels print
   "(lo,hi]" on the right side), ±half_width lands in the outermost
   buckets, and anything beyond clamps into them. bucket_bounds must
   agree with bucket_of on all of those. *)
let test_hist_centered_edge_bounds () =
  let h = Histogram.centered ~half_width:10.0 ~half_buckets:2 in
  let check_bounds name i (elo, ehi) =
    let lo, hi = Histogram.bucket_bounds h i in
    check_float (name ^ " lo") elo lo;
    check_float (name ^ " hi") ehi hi
  in
  check_bounds "leftmost" 0 (-10.0, -5.0);
  check_bounds "left" 1 (-5.0, 0.0);
  check_bounds "center" 2 (0.0, 0.0);
  check_bounds "right" 3 (0.0, 5.0);
  check_bounds "rightmost" 4 (5.0, 10.0);
  (* Exactly on the k*w boundaries. *)
  check_int "5.0 is bucket 3's upper bound" 3 (Histogram.bucket_of h 5.0);
  check_int "+half_width" 4 (Histogram.bucket_of h 10.0);
  check_int "-5.0" 1 (Histogram.bucket_of h (-5.0));
  check_int "-half_width" 0 (Histogram.bucket_of h (-10.0));
  (* Clamped overflow joins the edge buckets. *)
  check_int "overflow right" 4 (Histogram.bucket_of h 1e9);
  check_int "overflow left" 0 (Histogram.bucket_of h (-1e9))

let test_hist_quantile_empty () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:5 in
  check_bool "empty is nan" true (Float.is_nan (Histogram.quantile h 0.5))

let test_hist_quantile_interpolates () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:5 in
  Histogram.add_n h 1.0 100;
  (* All mass in [0,2): the quantile interpolates linearly inside it. *)
  check_float "p0" 0.0 (Histogram.quantile h 0.0);
  check_float "p50" 1.0 (Histogram.quantile h 0.5);
  check_float "p100" 2.0 (Histogram.quantile h 1.0);
  (* p clamps to [0,1]. *)
  check_float "p<0 clamps" 0.0 (Histogram.quantile h (-3.0));
  check_float "p>1 clamps" 2.0 (Histogram.quantile h 7.0)

let test_hist_quantile_across_buckets () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:5 in
  Histogram.add h 1.0;
  Histogram.add h 9.0;
  check_float "median exhausts first bucket" 2.0 (Histogram.quantile h 0.5);
  check_float "p75 inside last bucket" 9.0 (Histogram.quantile h 0.75)

let prop_hist_quantile_monotone =
  QCheck.Test.make ~name:"histogram quantile is monotone and in range" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_range 0.0 100.0)) (float_range 0.0 1.0))
    (fun (xs, p) ->
      let h = Histogram.create ~lo:0.0 ~hi:100.0 ~buckets:20 in
      List.iter (Histogram.add h) xs;
      let q = Histogram.quantile h p in
      let q' = Histogram.quantile h (Float.min 1.0 (p +. 0.25)) in
      q >= 0.0 && q <= 100.0 && q <= q')

(* ------------------------------------------------------------------ *)
(* Ascii                                                               *)
(* ------------------------------------------------------------------ *)

let test_ascii_table () =
  let s = Ascii.table ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ] in
  check_bool "contains header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  check_int "line count" 6 (List.length lines);
  let widths = List.map String.length lines in
  List.iter (fun w -> check_int "uniform width" (List.hd widths) w) widths

let test_ascii_hbar () =
  Alcotest.(check string) "full" "##########" (Ascii.hbar ~width:10 1.0);
  Alcotest.(check string) "empty" "          " (Ascii.hbar ~width:10 0.0);
  Alcotest.(check string) "half" "#####     " (Ascii.hbar ~width:10 0.5);
  Alcotest.(check string) "clamped" "##########" (Ascii.hbar ~width:10 5.0)

let test_ascii_percent_ratio () =
  Alcotest.(check string) "percent" "12.3%" (Ascii.percent 0.123);
  Alcotest.(check string) "big ratio" "3539x" (Ascii.ratio 3539.0);
  Alcotest.(check string) "small ratio" "1.5x" (Ascii.ratio 1.5)

let test_ascii_bar_chart () =
  let s = Ascii.bar_chart ~width:10 ~labels:[| "x"; "yy" |] ~values:[| 1.0; 2.0 |] () in
  let lines = String.split_on_char '\n' s in
  check_int "two rows" 2 (List.length lines)

(* ------------------------------------------------------------------ *)
(* Bytesize                                                            *)
(* ------------------------------------------------------------------ *)

let test_varint_widths () =
  check_int "0" 1 (Bytesize.varint 0);
  check_int "63" 1 (Bytesize.varint 63);
  check_int "64" 2 (Bytesize.varint 64);
  check_int "-1" 1 (Bytesize.varint (-1));
  check_int "-64" 1 (Bytesize.varint (-64));
  check_int "-65" 2 (Bytesize.varint (-65));
  check_int "big" 5 (Bytesize.varint (1 lsl 33))

let test_varint_monotone () =
  let prev = ref 0 in
  for k = 0 to 40 do
    let w = Bytesize.varint (1 lsl k) in
    check_bool "non-decreasing" true (w >= !prev);
    prev := w
  done

let test_of_ints () =
  check_int "sum" (Bytesize.varint 1 + Bytesize.varint 1000) (Bytesize.of_ints [ 1; 1000 ]);
  check_int "empty" 0 (Bytesize.of_ints [])

let prop_varint_positive =
  QCheck.Test.make ~name:"varint always >= 1 and <= 10" ~count:500 QCheck.int (fun n ->
      let w = Bytesize.varint n in
      w >= 1 && w <= 10)

(* --- decimal ------------------------------------------------------------ *)

let decimal_string n =
  let b = Bytes.make (Decimal.max_length + 3) '.' in
  let stop = Decimal.write b 2 n in
  check_int "returns the end" (2 + String.length (string_of_int n)) stop;
  check_bool "writes nothing around it" true
    (Bytes.get b 0 = '.' && Bytes.get b 1 = '.'
    && (stop = Bytes.length b || Bytes.get b stop = '.'));
  Bytes.sub_string b 2 (stop - 2)

(* Every width: both sides of each power of ten, either sign. *)
let test_decimal_extremes () =
  let powers = List.init 19 (fun k -> int_of_string ("1" ^ String.make k '0')) in
  List.iter
    (fun n -> Alcotest.(check string) (string_of_int n) (string_of_int n) (decimal_string n))
    ([ min_int; max_int; min_int + 1; max_int - 1; 0 ]
    @ List.concat_map (fun p -> [ p; p - 1; -p; 1 - p ]) powers);
  check_int "max_length" (String.length (string_of_int min_int)) Decimal.max_length;
  check_bool "no room raises" true
    (match Decimal.write (Bytes.create 3) 1 1234 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let prop_decimal_string_of_int =
  QCheck.Test.make ~name:"write = string_of_int" ~count:2000
    QCheck.(oneof [ int; small_signed_int; map (fun n -> -n) small_nat ])
    (fun n ->
      let b = Bytes.create Decimal.max_length in
      let stop = Decimal.write b 0 n in
      Bytes.sub_string b 0 stop = string_of_int n)

let parse s = Decimal.parse s 0 (String.length s)

let prop_decimal_parse_inverts_write =
  QCheck.Test.make ~name:"parse inverts write" ~count:2000
    QCheck.(oneof [ int; small_signed_int; oneofl [ min_int; max_int; 0; -1 ] ])
    (fun n ->
      let s = string_of_int n in
      parse s = n && Decimal.parse ("(" ^ s ^ ")") 1 (1 + String.length s) = n)

let test_decimal_parse_refuses () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "%S refused" s) true
        (match parse s with _ -> false | exception Decimal.Not_canonical -> true))
    [
      ""; "-"; "-0"; "00"; "007"; "+5"; " 5"; "5 "; "0x10"; "1e3"; "1_000"; "9223372036854775808";
      "-9223372036854775809"; "99999999999999999999";
    ]

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

(* The parser recurses once per level, so hostile nesting must stop at
   the depth bound with [Error], never with [Stack_overflow]. *)
let test_json_deep_nesting () =
  let repeat unit n =
    let b = Buffer.create (n * String.length unit) in
    for _ = 1 to n do
      Buffer.add_string b unit
    done;
    Buffer.contents b
  in
  List.iter
    (fun (name, doc) ->
      match Json.of_string doc with
      | Ok _ -> Alcotest.failf "%s parsed" name
      | Error e -> check_bool (name ^ ": " ^ e) true (String.length e > 0)
      | exception e -> Alcotest.failf "%s raised %s" name (Printexc.to_string e))
    [
      ("1 MiB of [", repeat "[" (1 lsl 20));
      ("1 MiB of {\"a\":", repeat {|{"a":|} ((1 lsl 20) / 5));
      ("65 levels", repeat "[" 65 ^ repeat "]" 65);
    ];
  check_bool "64 levels parse" true (Result.is_ok (Json.of_string (repeat "[" 64 ^ repeat "]" 64)))

(* A float renders as %.6g; reading that text back and rendering it
   again gives the same text, for integral values (read as integers),
   -0 and the non-finite ones (null) too. *)
let prop_json_number_text =
  QCheck.Test.make ~name:"number text renders back" ~count:2000
    QCheck.(
      oneof
        [ float; oneofl [ 0.0; -0.0; 100.0; 1e6; -1e-7; Float.nan; Float.infinity; 123456.0 ] ])
    (fun f ->
      let text = Json.to_string (Json.Float f) in
      match Json.of_string text with
      | Ok j -> Json.to_string (Json.Float (Json.number j)) = text
      | Error _ -> false)

(* Only RFC 8259's spellings load, though OCaml's own number readers
   take more: no sign before a number, no leading zero, no bare or
   trailing point, and exactly four hex digits after \u. The repo's own
   JSON files still load. *)
let test_json_refuses_spellings () =
  List.iter
    (fun doc -> check_bool (doc ^ " refused") true (Result.is_error (Json.of_string doc)))
    [
      "+5"; "02"; ".5"; "5."; "-"; "-.5"; "01.5"; "1e"; "1e+"; "0x10"; "1_000"; "[02]";
      {|"\u00_41"|}; {|"\u+041"|}; {|"\u004"|}; {|"\u004g"|};
    ];
  List.iter
    (fun (doc, want) -> check_bool (doc ^ " read") true (Json.of_string doc = Ok want))
    [
      ("0", Json.Int 0); ("-7", Json.Int (-7)); ("0.5", Json.Float 0.5);
      ("-1.5e-7", Json.Float (-1.5e-7)); ("2E+3", Json.Float 2000.0); ({|"\u0041\u00e9"|}, Json.String "A\xc3\xa9");
    ];
  List.iter
    (fun f ->
      let path = if Sys.file_exists ("../" ^ f) then "../" ^ f else f in
      match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" f e)
    [ "BENCH_ormp.json"; "BENCHMARK.json" ]

let test_json_decode_mirror () =
  let read j =
    let m = Json.obj j in
    let a = Json.field m "a" Json.int in
    let b = Json.field m "b" (Json.list Json.string) in
    Json.close m;
    (a, b)
  in
  let decode doc = Result.bind (Json.of_string doc) (Json.decode read) in
  check_bool "the encoder's members" true (decode {|{"a":1,"b":["x"]}|} = Ok (1, [ "x" ]));
  List.iter
    (fun doc -> check_bool doc true (Result.is_error (decode doc)))
    [
      {|{"b":["x"],"a":1}|}; {|{"a":1}|}; {|{"a":1,"b":["x"],"c":0}|}; {|{"a":1.5,"b":[]}|};
      {|{"a":1,"b":[2]}|}; {|[]|}; {|{"a":1,"b":[]} x|};
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_util"
    [
      ( "prng",
        [
          tc "deterministic" test_prng_deterministic;
          tc "seed sensitivity" test_prng_seed_sensitivity;
          tc "int bounds" test_prng_int_bounds;
          tc "int_in bounds" test_prng_int_in_bounds;
          tc "int covers range" test_prng_int_covers;
          tc "float bounds" test_prng_float_bounds;
          tc "chance extremes" test_prng_chance_extremes;
          tc "shuffle permutes" test_prng_shuffle_permutes;
          tc "invalid args" test_prng_invalid_args;
        ] );
      ( "stats",
        [
          tc "mean" test_stats_mean;
          tc "median" test_stats_median;
          tc "percentile" test_stats_percentile;
          tc "percentile nearest rank" test_stats_percentile_nearest_rank;
          tc "gcd" test_stats_gcd;
          tc "egcd" test_stats_egcd;
          tc "divisions" test_stats_divisions;
          QCheck_alcotest.to_alcotest prop_fdiv_cdiv;
        ] );
      ( "histogram",
        [
          tc "uniform buckets" test_hist_uniform_buckets;
          tc "clamping" test_hist_clamping;
          tc "centered zero" test_hist_centered_zero;
          tc "centered sides" test_hist_centered_sides;
          tc "fractions" test_hist_fractions;
          tc "fractions empty" test_hist_fractions_empty;
          tc "merge" test_hist_merge;
          tc "merge mismatch" test_hist_merge_mismatch;
          tc "labels" test_hist_labels;
          tc "bucket bounds uniform" test_hist_bucket_bounds_uniform;
          tc "centered edge bounds" test_hist_centered_edge_bounds;
          tc "quantile empty" test_hist_quantile_empty;
          tc "quantile interpolates" test_hist_quantile_interpolates;
          tc "quantile across buckets" test_hist_quantile_across_buckets;
          QCheck_alcotest.to_alcotest prop_hist_total;
          QCheck_alcotest.to_alcotest prop_hist_quantile_monotone;
        ] );
      ( "ascii",
        [
          tc "table" test_ascii_table;
          tc "hbar" test_ascii_hbar;
          tc "percent/ratio" test_ascii_percent_ratio;
          tc "bar chart" test_ascii_bar_chart;
        ] );
      ( "decimal",
        [
          tc "extremes" test_decimal_extremes;
          QCheck_alcotest.to_alcotest prop_decimal_string_of_int;
          QCheck_alcotest.to_alcotest prop_decimal_parse_inverts_write;
          tc "parse refuses other spellings" test_decimal_parse_refuses;
        ]
      );
      ( "json",
        [
          tc "deep nesting is an error" test_json_deep_nesting;
          QCheck_alcotest.to_alcotest prop_json_number_text;
          tc "refuses other spellings" test_json_refuses_spellings;
          tc "decoders mirror their encoder" test_json_decode_mirror;
        ] );
      ( "bytesize",
        [
          tc "varint widths" test_varint_widths;
          tc "varint monotone" test_varint_monotone;
          tc "of_ints" test_of_ints;
          QCheck_alcotest.to_alcotest prop_varint_positive;
        ] );
    ]
