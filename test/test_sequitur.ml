open Ormp_sequitur

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let of_string s = Array.init (String.length s) (fun i -> Char.code s.[i])

let compress a =
  let t = Sequitur.create () in
  Sequitur.push_array t a;
  t

let ok t =
  match Sequitur.check_invariants t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariants: " ^ msg)

let roundtrip name a =
  let t = compress a in
  Alcotest.(check (array int)) (name ^ ": lossless") a (Sequitur.expand t);
  check_int (name ^ ": input length") (Array.length a) (Sequitur.input_length t);
  ok t;
  t

let test_empty () =
  let t = Sequitur.create () in
  Alcotest.(check (array int)) "expand empty" [||] (Sequitur.expand t);
  check_int "size" 0 (Sequitur.grammar_size t);
  check_int "rules" 1 (Sequitur.rule_count t);
  ok t

let test_single () = ignore (roundtrip "single" [| 7 |])
let test_pair () = ignore (roundtrip "pair" [| 7; 8 |])

let test_paper_example () =
  (* The paper's own example (§3.1): "abcbcabcbc" compresses to
     S -> AA; A -> aBB; B -> bc. *)
  let t = roundtrip "abcbcabcbc" (of_string "abcbcabcbc") in
  check_int "three rules" 3 (Sequitur.rule_count t);
  let by_id = Sequitur.rules t in
  let s_rhs = List.assoc 0 by_id in
  check_int "S has two symbols" 2 (List.length s_rhs);
  (match s_rhs with
  | [ `N a; `N b ] -> check_int "S -> AA" a b
  | _ -> Alcotest.fail "start rule is not a doubled non-terminal");
  (* 2 (S) + 3 (A -> aBB) + 2 (B -> bc) *)
  check_int "grammar size" 7 (Sequitur.grammar_size t)

let test_abab () =
  let t = roundtrip "abab" (of_string "abab") in
  (* S -> AA; A -> ab *)
  check_int "rules" 2 (Sequitur.rule_count t);
  check_int "size" 4 (Sequitur.grammar_size t)

let test_no_repetition () =
  let t = roundtrip "abcdefg" (of_string "abcdefg") in
  check_int "no rules created" 1 (Sequitur.rule_count t);
  check_int "size equals input" 7 (Sequitur.grammar_size t)

let test_runs_of_equal_symbols () =
  ignore (roundtrip "aa" (of_string "aa"));
  ignore (roundtrip "aaa" (of_string "aaa"));
  ignore (roundtrip "aaaa" (of_string "aaaa"));
  ignore (roundtrip "aaaaa" (of_string "aaaaa"));
  ignore (roundtrip "aaaaaaaaaaaaaaaa" (of_string "aaaaaaaaaaaaaaaa"));
  ignore (roundtrip "aaabaaab" (of_string "aaabaaab"));
  ignore (roundtrip "aabbaabb" (of_string "aabbaabb"))

let test_long_repetition_compresses () =
  let a = Array.init 4096 (fun i -> i mod 4) in
  let t = roundtrip "cycle" a in
  check_bool "compresses well" true (Sequitur.grammar_size t < 100)

let test_nested_repetition () =
  (* (ab)^2 repeated gives hierarchical rules. *)
  let a = of_string (String.concat "" (List.init 64 (fun _ -> "abcabd"))) in
  let t = roundtrip "nested" a in
  check_bool "compresses" true (Sequitur.grammar_size t < 64)

let test_negative_terminals () =
  ignore (roundtrip "negatives" [| -1; -2; -1; -2; -1; -2; -1; -2 |])

(* Terminals that differ only in bit 62 share a digram key, and stay two
   symbols. *)
let bit62_streams = [ [| min_int; 5; 0; 5 |]; [| 7; 1 lsl 61; 7; (1 lsl 61) + min_int |] ]

let test_large_terminals () =
  let big = 1 lsl 40 in
  ignore (roundtrip "large" [| big; big + 1; big; big + 1; big; big + 1 |]);
  List.iter (fun a -> ignore (roundtrip "bit 62" a)) bit62_streams

let test_incremental_equals_batch () =
  let a = of_string "xyxyxyzxyxyxyz" in
  let t1 = compress a in
  let t2 = Sequitur.create () in
  Array.iter (fun v -> Sequitur.push t2 v) a;
  check_int "same size" (Sequitur.grammar_size t1) (Sequitur.grammar_size t2);
  Alcotest.(check (array int)) "same expansion" (Sequitur.expand t1) (Sequitur.expand t2)

let test_byte_size_positive () =
  let t = compress (of_string "abcbcabcbc") in
  check_bool "byte size positive" true (Sequitur.byte_size t > 0);
  check_bool "byte size >= rule count (separators)" true
    (Sequitur.byte_size t >= Sequitur.rule_count t)

let test_byte_size_smaller_for_small_alphabet () =
  (* Same structure, small vs. huge terminal values: varint accounting must
     charge the huge ones more. *)
  let small = compress [| 1; 2; 3; 1; 2; 3 |] in
  let big_v = 1 lsl 40 in
  let big = compress [| big_v + 1; big_v + 2; big_v + 3; big_v + 1; big_v + 2; big_v + 3 |] in
  check_bool "small alphabet cheaper" true (Sequitur.byte_size small < Sequitur.byte_size big)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_pp_output () =
  let t = compress (of_string "abab") in
  let s = Format.asprintf "%a" Sequitur.pp t in
  check_bool "mentions R0" true (contains_substring s "R0 ->")

(* Stress: digram uniqueness interacts with rule utility; a previously-used
   rule's whole RHS matching a new digram exercises the reuse path. *)
let test_rule_reuse_path () =
  let t = roundtrip "reuse" (of_string "abcdbcabcdbc") in
  ok t

(* --- arena vs. legacy equivalence ------------------------------------- *)

(* The flat-arena implementation must be indistinguishable from the record
   implementation it replaced: identical rules (ids included), sizes and
   expansion for any input. [Sequitur_legacy] is the old implementation
   kept verbatim as the oracle. The arena's own invariants are checked too:
   [check]'s overwrite of a binding whose digram differs is reached only
   through packed-key collisions, so the collision stress below is where
   that overwrite's anchor bit is checked. *)
let equivalent a =
  let arena = compress a in
  let legacy = Sequitur_legacy.create () in
  Sequitur_legacy.push_array legacy a;
  Sequitur.check_invariants arena = Ok ()
  && Sequitur.rules arena = Sequitur_legacy.rules legacy
  && Sequitur.grammar_size arena = Sequitur_legacy.grammar_size legacy
  && Sequitur.rule_count arena = Sequitur_legacy.rule_count legacy
  && Sequitur.byte_size arena = Sequitur_legacy.byte_size legacy
  && Sequitur.expand arena = Sequitur_legacy.expand legacy
  && Sequitur.input_length arena = Sequitur_legacy.input_length legacy

let assert_equivalent name a =
  check_bool (name ^ ": arena = legacy") true (equivalent a)

let test_equivalence_corpus () =
  List.iter
    (fun s -> assert_equivalent s (of_string s))
    [
      "";
      "a";
      "ab";
      "abcbcabcbc";
      "abab";
      "abcdefg";
      "aaaa";
      "aaaaaaaaaaaaaaaa";
      "aaabaaab";
      "aabbaabb";
      "xyxyxyzxyxyxyz";
      "abcdbcabcdbc";
    ];
  assert_equivalent "cycle4" (Array.init 4096 (fun i -> i mod 4));
  assert_equivalent "negatives" [| -1; -2; -1; -2; -1; -2; -1; -2 |];
  let big = 1 lsl 40 in
  assert_equivalent "large terminals" [| big; big + 1; big; big + 1; big; big + 1 |];
  List.iter (assert_equivalent "bit 62") bit62_streams

(* Oversized terminal codes overflow the 31-bit packing lanes of the digram
   key, so distinct digrams can collide on the same packed key; both
   implementations must resolve those collisions identically (validate on
   lookup, repoint on mismatch). [pack (2v) (2w)] collides across values
   differing by multiples of 2^30, which this alphabet is built from. *)
let gen_collision_alphabet =
  let values =
    [| 0; 1; 2; 1 lsl 30; (1 lsl 30) + 1; 1 lsl 35; (1 lsl 35) + 1; -1; -2; 1 lsl 61 |]
  in
  QCheck.Gen.(
    sized (fun n ->
        let n = min n 300 in
        array_size (return n) (map (Array.get values) (int_bound (Array.length values - 1)))))

let gen_small_alphabet_ref =
  QCheck.Gen.(
    sized (fun n ->
        let n = min n 400 in
        array_size (return n) (int_range 0 3)))

let prop_equiv_small_alphabet =
  QCheck.Test.make ~name:"arena = legacy (alphabet of 4)" ~count:500
    (QCheck.make ~print:QCheck.Print.(array int) gen_small_alphabet_ref)
    equivalent

let prop_equiv_any =
  QCheck.Test.make ~name:"arena = legacy (arbitrary ints)" ~count:300
    QCheck.(array_of_size Gen.(int_range 0 200) int)
    equivalent

let prop_equiv_collisions =
  QCheck.Test.make ~name:"arena = legacy (digram-key collision stress)" ~count:400
    (QCheck.make ~print:QCheck.Print.(array int) gen_collision_alphabet)
    equivalent

(* The index keeps only each key's hash bits and confirms a hit from the
   arena, so every binding must name a live slot keyed by that slot's
   current digram. [check_invariants] runs after every single push here,
   on streams built to collide: a [v lsl 40] code shifts out of the
   packed key's high half entirely, and negative codes, [min_int] and
   [max_int] overflow it, so over an alphabet of 2-7 such values most
   distinct digrams share a packed key. The grammar must still be the
   legacy oracle's. *)
let gen_colliding_stream =
  QCheck.Gen.(
    let code =
      oneof
        [
          map (fun v -> v lsl 40) (int_range (-4) 4);
          int_range (-9) (-1);
          oneofl [ min_int; min_int + 1; max_int; max_int - 1 ];
        ]
    in
    int_range 2 7 >>= fun k ->
    array_size (return k) code >>= fun alphabet ->
    sized (fun n ->
        array_size (return (min n 300)) (map (Array.get alphabet) (int_bound (k - 1)))))

let prop_invariants_every_push =
  QCheck.Test.make ~name:"invariants after every push (colliding codes)" ~count:300
    (QCheck.make ~print:QCheck.Print.(array int) gen_colliding_stream)
    (fun a ->
      let t = Sequitur.create () in
      Array.iteri
        (fun i v ->
          Sequitur.push t v;
          match Sequitur.check_invariants t with
          | Ok () -> ()
          | Error msg -> QCheck.Test.fail_reportf "after push %d: %s" (i + 1) msg)
        a;
      let legacy = Sequitur_legacy.create () in
      Sequitur_legacy.push_array legacy a;
      Sequitur.rules t = Sequitur_legacy.rules legacy)

let prop_equiv_runs =
  QCheck.Test.make ~name:"arena = legacy (concatenated runs)" ~count:300
    QCheck.(small_list (pair (int_range 0 2) (int_range 1 6)))
    (fun spec -> equivalent (Array.concat (List.map (fun (v, n) -> Array.make n v) spec)))

(* Long streams: the cases above hold at most a few hundred bindings, so
   none of them grows the table far or shifts entries back across a large
   cluster. These push 64k symbols — the index doubles at least eight
   times — in random chunks, check the invariants (the index's included)
   after every chunk, and compare the result with the legacy oracle. One
   stream repeats phrases from a dictionary (deep rule hierarchies). The
   uniform streams have no structure at all: over 8 values two symbols in
   three match, so rules churn and bindings are removed all over the
   table, wraps included; over 400 values about one symbol in nine
   matches and the table grows to 2^17. *)
let long_len = 65536

let gen_phrase_stream =
  QCheck.Gen.(
    list_repeat 2000 (list_size (int_range 3 24) (int_bound 2999)) >>= fun dict ->
    let dict = Array.of_list (List.map Array.of_list dict) in
    let rec fill acc n =
      if n >= long_len then return (Array.sub (Array.concat (List.rev acc)) 0 long_len)
      else int_bound (Array.length dict - 1) >>= fun i -> fill (dict.(i) :: acc) (n + Array.length dict.(i))
    in
    fill [] 0)

let gen_uniform_stream values = QCheck.Gen.(array_size (return long_len) (int_bound (values - 1)))

let long_case gen_stream =
  QCheck.make
    ~print:(fun (a, cuts) ->
      Printf.sprintf "%d symbols, chunks %s" (Array.length a)
        (String.concat "," (List.map string_of_int cuts)))
    QCheck.Gen.(pair gen_stream (list_size (int_range 4 24) (int_range 1 8192)))

let long_equivalent (a, cuts) =
  let t = Sequitur.create () in
  let off = ref 0 in
  let push len =
    let len = min len (Array.length a - !off) in
    Sequitur.push_batch t a ~off:!off ~len;
    off := !off + len;
    ok t
  in
  List.iter push cuts;
  push (Array.length a - !off);
  let legacy = Sequitur_legacy.create () in
  Sequitur_legacy.push_array legacy a;
  Sequitur.rules t = Sequitur_legacy.rules legacy
  && Sequitur.grammar_size t = Sequitur_legacy.grammar_size legacy
  && Sequitur.expand t = a

let prop_long_phrases =
  QCheck.Test.make ~name:"arena = legacy (64k symbols of repeated phrases)" ~count:2
    (long_case gen_phrase_stream) long_equivalent

let prop_long_uniform8 =
  QCheck.Test.make ~name:"arena = legacy (64k uniform symbols over 8 values)" ~count:3
    (long_case (gen_uniform_stream 8)) long_equivalent

let prop_long_uniform400 =
  QCheck.Test.make ~name:"arena = legacy (64k uniform symbols over 400 values)" ~count:1
    (long_case (gen_uniform_stream 400)) long_equivalent

(* --- in-place rewrites at the push's own match ------------------------- *)

(* The push's own match is rewritten in place when it is a whole rule,
   and when it is [N_R c] against [N_R c'] with R used only there (the
   extension); every other match takes the general path. Both must count
   and bind exactly what the general path does, so each stream below is
   fed to the arena and the legacy oracle in step, with the invariants
   checked and the rules compared after every push, and the push that
   meets the shape is pinned by its [sequitur.*] counts:
   [matches; rules created; rules retired; utility inlines]. *)
module Tm = Ormp_telemetry.Telemetry

let counted f =
  Tm.reset ();
  Tm.enable ();
  Fun.protect
    ~finally:(fun () ->
      Tm.disable ();
      Tm.reset ())
    (fun () ->
      f ();
      let c = (Tm.Metrics.snapshot ()).Tm.Metrics.snap_counters in
      List.map
        (fun k -> Option.value ~default:0 (List.assoc_opt k c))
        [
          "sequitur.matches";
          "sequitur.rules_created";
          "sequitur.rules_retired";
          "sequitur.utility_inlines";
        ])

(* Push [a] one symbol at a time into a fresh arena and the oracle; the
   counts of each push, and the arena. *)
let in_step name a =
  let t = Sequitur.create () and legacy = Sequitur_legacy.create () in
  let counts =
    Array.mapi
      (fun i v ->
        let c = counted (fun () -> Sequitur.push t v) in
        Sequitur_legacy.push legacy v;
        (match Sequitur.check_invariants t with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: after push %d: %s" name (i + 1) msg);
        if Sequitur.rules t <> Sequitur_legacy.rules legacy then
          Alcotest.failf "%s: rules differ from the legacy oracle after push %d" name (i + 1);
        c)
      a
  in
  (counts, t)

let extension = [ 1; 1; 1; 1 ]

let check_counts name ~push want counts =
  Alcotest.(check (list int)) (Printf.sprintf "%s: counts of push %d" name push) want counts.(push - 1)

(* A listing with each nonterminal R<k> written -k. *)
let check_rules name want t =
  Alcotest.(check (list (pair int (list int))))
    (name ^ ": rules")
    want
    (List.map
       (fun (id, rhs) -> (id, List.map (function `T v -> v | `N r -> -r) rhs))
       (Sequitur.rules t))

(* x a b c d e … y a b c d e: once [a b] repeats it is a rule used at
   those two places, and each later push of the second occurrence meets
   the extension, which inlines the rule it grows. *)
let test_extension_grows_rule () =
  let name = "extension" in
  let counts, t = in_step name [| 100; 1; 2; 3; 4; 5; 101; 1; 2; 3; 4; 5 |] in
  check_counts name ~push:9 [ 1; 1; 0; 0 ] counts;
  List.iter (fun push -> check_counts name ~push extension counts) [ 10; 11; 12 ];
  check_rules name [ (0, [ 100; -4; 101; -4 ]); (4, [ 1; 2; 3; 4; 5 ]) ] t

(* a b c a b d a b: the last push's [a b] is the whole of rule 1. *)
let test_whole_rule_match () =
  let name = "whole rule" in
  let counts, t = in_step name [| 1; 2; 3; 1; 2; 4; 1; 2 |] in
  check_counts name ~push:8 [ 1; 0; 0; 0 ] counts;
  check_rules name [ (0, [ -1; 3; -1; 4; -1 ]); (1, [ 1; 2 ]) ] t

(* Shapes near the extension, each met at the last push. R is rule 1 =
   [1 2] throughout. The first two are refused (R is used more than
   twice), the last is inside a cascade, and the rest take the in-place
   path. The refusal of equal symbols before the two occurrences has no
   stream here: R used twice with [N_R] last in the start rule was made
   by the push before, whose check of [q2 N_R] would have matched an
   equal [q1 N_R]; no stream found (the 35 lanes of [stand-in lanes] at
   test and bench scale, about five million random and phrase streams,
   colliding codes included) reaches it. *)
let test_extension_guards () =
  List.iter
    (fun (name, a, want_counts, want_rules) ->
      let counts, t = in_step name a in
      check_counts name ~push:(Array.length a) want_counts counts;
      check_rules name want_rules t)
    [
      (* R used three times: R stays, and the new rule uses it. *)
      ( "R used three times",
        [| 1; 2; 5; 1; 2; 3; 7; 1; 2; 8; 1; 2; 3 |],
        [ 1; 1; 0; 0 ],
        [ (0, [ -1; 5; -2; 7; -1; 8; -2 ]); (1, [ 1; 2 ]); (2, [ -1; 3 ]) ] );
      (* the digram [N_R N_R]: R is used at both of its symbols and in
         [N_R 3], three times. *)
      ( "digram R R",
        [| 1; 2; 3; 8; 1; 2; 1; 2; 3 |],
        [ 1; 1; 0; 0 ],
        [ (0, [ -2; 8; -1; -2 ]); (1, [ 1; 2 ]); (2, [ -1; 3 ]) ] );
      (* adjacent occurrences [R 3 R 3]: the second substitution starts
         from the first one's rewritten symbol. *)
      ("adjacent occurrences", [| 1; 2; 3; 1; 2; 3 |], extension, [ (0, [ -2; -2 ]); (2, [ 1; 2; 3 ]) ]);
      (* the first occurrence's [3] is followed by another [3], the
         symbol pushed: the second occurrence ends the start rule, so
         nothing follows it and the extension holds. *)
      ( "equal symbols after them",
        [| 1; 2; 3; 3; 9; 1; 2; 3 |],
        extension,
        [ (0, [ -2; 3; 9; -2 ]); (2, [ 1; 2; 3 ]) ] );
      (* The last push's whole-rule match [2 0] leaves [R2 R1] twice at
         the start rule's ends; that match, inside the cascade, makes
         rule 3 = [R2 R1] with R2 used only there, so R2 is inlined — an
         extension the general path makes. *)
      ( "extension inside a cascade",
        [| 0; 1; 2; 0; 2; 0; 0; 1; 2; 0 |],
        [ 2; 1; 1; 1 ],
        [ (0, [ -3; -1; -3 ]); (1, [ 2; 0 ]); (3, [ 0; 1; -1 ]) ] );
    ]

(* The general path binds the new rule's first digram [N_R' c''] and the
   inlining removes it again, which removes whatever binding the key had.
   Here the first substitution's check binds [N_2 v] under that key: with
   R = rule 1 and the new rule 2, [pack (2*2+1) (2v)] equals
   [pack (2*1+1) (2*3)] for v = 3·2^31 + 3. So that binding goes, and the
   [N_2 v] the last push makes is not matched. *)
let test_extension_key_collision () =
  let name = "colliding key" in
  let v = (3 lsl 31) lor 3 in
  let counts, t = in_step name [| 1; 2; 3; v; 9; 1; 2; 3; v |] in
  check_counts name ~push:8 extension counts;
  check_counts name ~push:9 [ 0; 0; 0; 0 ] counts;
  check_rules name [ (0, [ -2; v; 9; -2; v ]); (2, [ 1; 2; 3 ]) ] t

(* A wide terminal in one span keeps the next span from absorbing a
   chain, though that span starts narrow: [2^30 + 1] beside a rule's
   nonterminal packs like [1] beside a terminal, so a chain absorbed in
   the second span here binds what one push per value does not. *)
let test_chain_after_wide_span () =
  let w = (1 lsl 30) + 1 in
  let a = [| 4; 3; 1; w; 4; 4; 4; 4; 4; 3; 1; w |] in
  let t = Sequitur.create () in
  Sequitur.push_batch t a ~off:0 ~len:8;
  Sequitur.push_batch t a ~off:8 ~len:4;
  ok t;
  let one = Sequitur.create () and legacy = Sequitur_legacy.create () in
  Array.iter (Sequitur.push one) a;
  Sequitur_legacy.push_array legacy a;
  check_bool "push_batch = push" true (Sequitur.rules t = Sequitur.rules one);
  check_bool "push = legacy" true (Sequitur.rules one = Sequitur_legacy.rules legacy)

(* Phrases from a small dictionary over 64 values, each phrase sometimes
   mutated (a symbol replaced, one appended, the first dropped): repeats
   that keep growing and breaking off. They reach the extension about
   0.18 times per symbol; the alphabet-of-4 streams above reach it about
   0.008 times. Pushed in random chunks, invariants after each. *)
let gen_mutated_phrases =
  QCheck.Gen.(
    int_range 2 9 >>= fun nd ->
    array_repeat nd (array_size (int_range 2 11) (int_bound 63)) >>= fun dict ->
    list_size (int_range 50 150)
      (quad (int_bound (nd - 1)) (int_bound 4) (int_bound 10) (int_bound 63))
    >|= fun picks ->
    Array.concat
      (List.map
         (fun (i, mutation, at, v) ->
           let p = Array.copy dict.(i) in
           match mutation with
           | 0 ->
             p.(at mod Array.length p) <- v;
             p
           | 1 -> Array.append p [| v |]
           | 2 -> Array.sub p 1 (Array.length p - 1)
           | _ -> p)
         picks))

let prop_mutated_phrases =
  QCheck.Test.make ~name:"arena = legacy (mutated phrases, chunked)" ~count:300
    (QCheck.make
       ~print:(fun (a, cuts) ->
         Printf.sprintf "%s / chunks %s"
           (QCheck.Print.(array int) a)
           (String.concat "," (List.map string_of_int cuts)))
       QCheck.Gen.(pair gen_mutated_phrases (list_size (int_range 1 12) (int_range 1 200))))
    long_equivalent

(* Extension chains: phrases that recur between random separators, so
   each later occurrence extends one rule symbol by symbol, which
   [push_batch] absorbs in one loop while the next value continues the
   chain. Chunk cuts fall inside chains, so chains start and end at chunk
   edges too, and half the cuts are short, so a chunk often starts in a
   chain with no wide terminal before it. In one case of four the
   phrases hold wide or negative terminals: [v + k·2^30] packs like [v]
   beside a nonterminal, and [3·2^31 + 3] is the extension's own
   colliding key (see [extension key collision]), so a chain absorbed in
   their presence binds what one push per value does not, and fusion
   must stay off. After every chunk the invariants hold and the legacy
   oracle agrees; at the end one push per value gives the same rules,
   [sequitur.*] totals and heap words, so the tables end the same size. *)
let words t = Obj.reachable_words (Obj.repr t)

let gen_chains =
  QCheck.Gen.(
    int_bound 3 >>= fun wide ->
    let sym =
      if wide > 0 then int_bound 39
      else
        frequency
          [
            (3, int_bound 39);
            ( 1,
              oneof
                [
                  map (fun (v, k) -> v + (k lsl 30)) (pair (int_bound 39) (int_range 1 6));
                  map (fun v -> -v - 1) (int_bound 39);
                  return ((3 lsl 31) lor 3);
                ] );
          ]
    in
    int_range 1 5 >>= fun nd ->
    array_repeat nd (array_size (int_range 6 40) sym) >>= fun dict ->
    array_repeat nd (int_range 2 6) >>= fun recur ->
    let order = List.concat (List.init nd (fun i -> List.init recur.(i) (fun _ -> i))) in
    shuffle_l order >>= fun order ->
    list_repeat (List.length order) (array_size (int_range 1 4) (int_range 40 79)) >>= fun seps ->
    let a = Array.concat (List.concat (List.map2 (fun i sep -> [ sep; dict.(i) ]) order seps)) in
    pair (return a) (list_size (int_range 1 40) (oneof [ int_range 1 8; int_range 9 600 ])))

let prop_chains =
  QCheck.Test.make ~name:"push_batch = push and legacy (extension chains, chunked)" ~count:1000
    (QCheck.make
       ~print:(fun (a, cuts) ->
         Printf.sprintf "%s / chunks %s"
           (QCheck.Print.(array int) a)
           (String.concat "," (List.map string_of_int cuts)))
       gen_chains)
    (fun (a, cuts) ->
      let t = Sequitur.create () and legacy = Sequitur_legacy.create () in
      let off = ref 0 in
      let chunk len =
        let len = min len (Array.length a - !off) in
        Sequitur.push_batch t a ~off:!off ~len;
        Sequitur_legacy.push_array legacy (Array.sub a !off len);
        off := !off + len;
        (match Sequitur.check_invariants t with
        | Ok () -> ()
        | Error msg -> QCheck.Test.fail_reportf "after symbol %d: %s" !off msg);
        if Sequitur.rules t <> Sequitur_legacy.rules legacy then
          QCheck.Test.fail_reportf "after symbol %d: rules differ from the legacy oracle" !off
      in
      let counts =
        counted (fun () ->
            List.iter chunk cuts;
            chunk (Array.length a - !off))
      in
      let one = Sequitur.create () in
      let one_counts = counted (fun () -> Array.iter (Sequitur.push one) a) in
      Sequitur.rules one = Sequitur.rules t && one_counts = counts && words one = words t)

(* The seven stand-ins' five lanes at test scale — the CDC's instruction,
   group, object and offset lanes and the raw addresses RASG takes —
   pushed in the CDC's own chunks into the arena and as one array into
   the oracle. 175.vpr-like's object lane also pins the counter totals
   the general path alone counted before the rewrites. *)
let stand_in_lanes entry =
  let lanes = Array.make 5 [] in
  let keep d a n = lanes.(d) <- Array.sub a 0 n :: lanes.(d) in
  let cdc =
    Ormp_core.Cdc.create ~site_name:(Printf.sprintf "site%d") ~on_tuple:(fun _ -> assert false) ()
  in
  let tuples =
    Ormp_core.Cdc.batch_tuples cdc
      ~on_tuples:(fun tp ->
        let n = tp.Ormp_core.Cdc.tp_len in
        keep 0 tp.tp_instr n;
        keep 1 tp.tp_group n;
        keep 2 tp.tp_obj n;
        keep 3 tp.tp_offset n)
      ()
  in
  let raw =
    Ormp_trace.Batch.create
      ~on_chunk:(fun c -> keep 4 c.Ormp_trace.Batch.addr c.len)
      ~on_event:ignore ()
  in
  let batch = Ormp_trace.Batch.fanout [ tuples; raw ] in
  ignore (Ormp_vm.Runner.run_batched (Ormp_workloads.Registry.program entry) batch);
  Ormp_trace.Batch.flush batch;
  Array.map List.rev lanes

let test_stand_in_lanes () =
  let dims = [| "instr"; "group"; "object"; "offset"; "rasg" |] in
  List.iter
    (fun (entry : Ormp_workloads.Registry.entry) ->
      Array.iteri
        (fun d chunks ->
          let name = Printf.sprintf "%s %s" entry.name dims.(d) in
          let t = Sequitur.create () in
          let counts =
            counted (fun () ->
                List.iter (fun c -> Sequitur.push_batch t c ~off:0 ~len:(Array.length c)) chunks)
          in
          ok t;
          let legacy = Sequitur_legacy.create () in
          List.iter (Sequitur_legacy.push_array legacy) chunks;
          check_bool (name ^ ": arena = legacy") true
            (Sequitur.rules t = Sequitur_legacy.rules legacy);
          (* One push per value is what [push_batch] must equal: the same
             grammar, events and heap, so the same index doublings. *)
          let one = Sequitur.create () in
          let one_counts = counted (fun () -> List.iter (Array.iter (Sequitur.push one)) chunks) in
          check_bool (name ^ ": push_batch = push") true (Sequitur.rules t = Sequitur.rules one);
          Alcotest.(check (list int)) (name ^ ": counts of one push per value") one_counts counts;
          check_int (name ^ ": words held") (words one) (words t);
          (* Sequitur's overlap rule leaves one repeated digram in each of
             vpr's instr and group grammars and none elsewhere (see
             [Grammar_oracle]). *)
          let repeated =
            match (entry.name, dims.(d)) with
            | "175.vpr-like", ("instr" | "group") -> 1
            | _ -> 0
          in
          check_bool (name ^ ": repeated digrams") true
            (Grammar_oracle.check ~input_length:(Sequitur.input_length t) (Sequitur.rules t)
            = Ok repeated);
          if entry.name = "175.vpr-like" && dims.(d) = "object" then begin
            check_int (name ^ ": symbols") 34_896 (Sequitur.input_length t);
            Alcotest.(check (list int)) (name ^ ": counts") [ 29_664; 17_400; 16_375; 16_375 ] counts
          end)
        (stand_in_lanes entry))
    Ormp_workloads.Registry.spec

(* --- push_batch -------------------------------------------------------- *)

let test_push_batch_slice () =
  let a = of_string "..abcbcabcbc.." in
  let whole = compress (Array.sub a 2 10) in
  let sliced = Sequitur.create () in
  Sequitur.push_batch sliced a ~off:2 ~len:10;
  Alcotest.(check (array int)) "slice expansion" (Sequitur.expand whole) (Sequitur.expand sliced);
  check_int "slice size" (Sequitur.grammar_size whole) (Sequitur.grammar_size sliced);
  ok sliced

let test_push_batch_bad_span () =
  let t = Sequitur.create () in
  let raises off len =
    match Sequitur.push_batch t [| 1; 2; 3 |] ~off ~len with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "negative off" true (raises (-1) 2);
  check_bool "negative len" true (raises 0 (-1));
  check_bool "overrun" true (raises 2 2);
  check_int "nothing pushed" 0 (Sequitur.input_length t)

(* The compressor allocates nothing per pushed symbol, matches included:
   after a warm-up that grows its tables, 64k more symbols cost at most a
   few stray words, whether the stream matches on nearly every symbol
   (the periodic one) or on about one in six. (Table doublings allocate
   in the major heap.) *)
let test_push_allocates_nothing () =
  let rng = Ormp_util.Prng.create ~seed:7 in
  let n = 65536 in
  List.iter
    (fun (name, f) ->
      let a = Array.init (2 * n) f in
      let t = Sequitur.create () in
      Sequitur.push_batch t a ~off:0 ~len:n;
      let w0 = Gc.minor_words () in
      Sequitur.push_batch t a ~off:n ~len:n;
      let words = Gc.minor_words () -. w0 in
      check_bool
        (Printf.sprintf "%s: %.0f minor words for %d symbols" name words n)
        true (words <= 1024.0);
      ok t)
    [
      ("repetitive", fun i -> (i mod 7) + (i / 4096 mod 3));
      ("high-entropy", fun _ -> Ormp_util.Prng.int rng 400);
    ]

(* A grammar restored from its rules re-pushes its expansion into a
   compressor grown from empty, as the original was, so it holds no more
   heap than the original however long the input was. *)
let test_restore_heap () =
  let rng = Ormp_util.Prng.create ~seed:11 in
  List.iter
    (fun (name, a) ->
      let t = compress a in
      match Sequitur.of_rules ~bound:max_int (Sequitur.rules t) with
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
      | Ok r ->
        check_bool (name ^ ": same rules") true (Sequitur.rules r = Sequitur.rules t);
        check_bool
          (Printf.sprintf "%s: restored %d words <= original %d" name (words r) (words t))
          true
          (words r <= words t))
    [
      ("periodic", Array.init 50_000 (fun i -> i mod 7));
      ("phrases", Array.init 50_000 (fun i -> (i * 7919 / 13) mod 97 + (i / 1000)));
      ("scattered", Array.init 20_000 (fun _ -> Ormp_util.Prng.int rng 400));
    ]

(* A grammar's heap is its live grammar. This stream holds 13-19 live
   rules while it creates and retires rules all along (every seventh
   symbol alternates between two values), so the compressor's heap must
   not grow with the number of rules it ever made: rule slots are
   recycled like symbol slots. The invariants, rule storage included, are
   checked after every chunk. *)
let test_heap_is_live_grammar () =
  let n = 800_000 and chunk = 10_000 and early = 50_000 in
  let a = Array.init n (fun i -> if i mod 7 = 6 then 100 + ((i / 7) land 1) else i mod 7) in
  let t = Sequitur.create () in
  let at_early = ref 0 in
  let off = ref 0 in
  while !off < n do
    Sequitur.push_batch t a ~off:!off ~len:chunk;
    off := !off + chunk;
    ok t;
    if !off = early then at_early := words t
  done;
  let at_end = words t in
  check_bool
    (Printf.sprintf "%d words at %d symbols <= 2 x %d at %d" at_end n !at_early early)
    true
    (at_end <= 2 * !at_early);
  Alcotest.(check (array int)) "lossless" a (Sequitur.expand t)

(* A listing's expansion length, without expanding: exact on a
   compressor's own listing, and on a listing that doubles at every rule
   it stops at the bound (2^61 symbols, or 2^70 past [max_int]). *)
let test_expansion_length () =
  let t = compress (of_string "abcbcabcbcabcbcabcbc") in
  Alcotest.(check (result int string))
    "own listing" (Ok (Sequitur.input_length t))
    (Sequitur.expansion_length ~bound:max_int (Sequitur.rules t));
  check_bool "one short of the bound" true
    (Result.is_error
       (Sequitur.expansion_length ~bound:(Sequitur.input_length t - 1) (Sequitur.rules t)));
  let doubling n = List.init n (fun k -> (k, [ `N (k + 1); `N (k + 1) ])) @ [ (n, [ `T 1 ]) ] in
  List.iter
    (fun (bound, n) ->
      check_bool (Printf.sprintf "%d doublings under bound %d" n bound) true
        (Result.is_error (Sequitur.expansion_length ~bound (doubling n))))
    [ (100, 61); (max_int, 70) ];
  Alcotest.(check (result int string)) "exactly at the bound" (Ok 1024)
    (Sequitur.expansion_length ~bound:1024 (doubling 10));
  List.iter
    (fun (name, rules) ->
      check_bool name true (Result.is_error (Sequitur.expansion_length ~bound:max_int rules)))
    [
      ("cycle", [ (0, [ `N 1; `N 1 ]); (1, [ `N 0; `T 2 ]) ]);
      ("dangling", [ (0, [ `N 4; `N 4 ]) ]);
      ("duplicate", [ (0, [ `T 1 ]); (0, [ `T 2 ]) ]);
      ("no start rule", [ (1, [ `T 1; `T 2 ]) ]);
    ]

(* [of_rules] accepts exactly the listings a compressor writes, within
   the caller's bound: the same expansion listed any other way is an
   error. *)
let test_of_rules_rejects_other_listings () =
  let listing = Sequitur.rules (compress (of_string "abcbcabcbc")) in
  check_bool "own listing loads" true (Result.is_ok (Sequitur.of_rules ~bound:10 listing));
  check_bool "one short of the bound" true (Result.is_error (Sequitur.of_rules ~bound:9 listing));
  let a = Char.code 'a' and b = Char.code 'b' in
  List.iter
    (fun (name, rules) ->
      check_bool name true (Result.is_error (Sequitur.of_rules ~bound:max_int rules)))
    [
      ("repeated digram", [ (0, [ `T a; `T b; `T a; `T b ]) ]);
      ("rule used once", [ (0, [ `N 1 ]); (1, [ `T a; `T b ]) ]);
      ("renumbered rule", [ (0, [ `N 7; `N 7 ]); (7, [ `T a; `T b ]) ]);
      ("unused rule", [ (0, [ `T a ]); (1, [ `T a; `T b ]) ]);
      ("rules out of order", List.rev listing);
      ("duplicated rule", listing @ [ List.nth listing 1 ]);
    ]

let test_iter_rules_matches_rules () =
  let t = compress (of_string "abcbcabcbc") in
  let acc = ref [] in
  Sequitur.iter_rules t (fun id rhs -> acc := (id, rhs) :: !acc);
  check_bool "iter_rules = rules" true (List.rev !acc = Sequitur.rules t)

let gen_small_alphabet =
  QCheck.Gen.(
    sized (fun n ->
        let n = min n 400 in
        array_size (return n) (int_range 0 3)))

let prop_roundtrip_small_alphabet =
  QCheck.Test.make ~name:"roundtrip (alphabet of 4)" ~count:500
    (QCheck.make ~print:QCheck.Print.(array int) gen_small_alphabet)
    (fun a ->
      let t = compress a in
      Sequitur.expand t = a)

let prop_invariants_small_alphabet =
  QCheck.Test.make ~name:"invariants hold (alphabet of 4)" ~count:300
    (QCheck.make ~print:QCheck.Print.(array int) gen_small_alphabet)
    (fun a ->
      let t = compress a in
      match Sequitur.check_invariants t with Ok () -> true | Error _ -> false)

let prop_roundtrip_any =
  QCheck.Test.make ~name:"roundtrip (arbitrary ints)" ~count:300
    QCheck.(array_of_size Gen.(int_range 0 200) int)
    (fun a ->
      let t = compress a in
      Sequitur.expand t = a)

let prop_grammar_never_larger =
  QCheck.Test.make ~name:"grammar size <= input length (non-trivial inputs)" ~count:300
    (QCheck.make ~print:QCheck.Print.(array int) gen_small_alphabet)
    (fun a ->
      let t = compress a in
      Array.length a < 2 || Sequitur.grammar_size t <= Array.length a)

let prop_runs =
  QCheck.Test.make ~name:"roundtrip on runs (worst case for digram overlap)" ~count:200
    QCheck.(pair (int_range 0 4) (int_range 0 64))
    (fun (v, n) ->
      let a = Array.make n v in
      let t = compress a in
      Sequitur.expand t = a
      && (match Sequitur.check_invariants t with Ok () -> true | Error _ -> false))

(* [grammar_size] is a maintained count, not a walk: it must equal the
   right-hand-side symbols {!Sequitur.visit_rules} yields after any
   pushes. *)
let rhs_symbols t =
  let n = ref 0 in
  Sequitur.visit_rules t ~rule:ignore
    ~terminal:(fun _ -> incr n)
    ~nonterminal:(fun _ -> incr n)
    ~rule_end:ignore;
  !n

let prop_grammar_size_counts =
  QCheck.Test.make ~name:"grammar_size = symbols visit_rules yields (pushes)" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair (array int) int)
       QCheck.Gen.(pair gen_small_alphabet (int_bound 400)))
    (fun (a, cut) ->
      let cut = min cut (Array.length a) in
      let t = Sequitur.create () in
      let counts () =
        Sequitur.grammar_size t = rhs_symbols t
        && (match Sequitur.check_invariants t with Ok () -> true | Error _ -> false)
      in
      (* Stop at the first miss: pushing on into a broken grammar can
         loop forever. *)
      Sequitur.push_batch t a ~off:0 ~len:cut;
      counts ()
      && (Sequitur.push_batch t a ~off:cut ~len:(Array.length a - cut);
          counts ()))

let prop_concat_runs =
  QCheck.Test.make ~name:"roundtrip on concatenated runs" ~count:300
    QCheck.(small_list (pair (int_range 0 2) (int_range 1 6)))
    (fun spec ->
      let a = Array.concat (List.map (fun (v, n) -> Array.make n v) spec) in
      let t = compress a in
      Sequitur.expand t = a)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_sequitur"
    [
      ( "unit",
        [
          tc "empty" test_empty;
          tc "single symbol" test_single;
          tc "two symbols" test_pair;
          tc "paper example abcbcabcbc" test_paper_example;
          tc "abab" test_abab;
          tc "no repetition" test_no_repetition;
          tc "runs of equal symbols" test_runs_of_equal_symbols;
          tc "long repetition compresses" test_long_repetition_compresses;
          tc "nested repetition" test_nested_repetition;
          tc "negative terminals" test_negative_terminals;
          tc "large terminals" test_large_terminals;
          tc "incremental equals batch" test_incremental_equals_batch;
          tc "byte size positive" test_byte_size_positive;
          tc "byte size scales with terminal width" test_byte_size_smaller_for_small_alphabet;
          tc "pp output" test_pp_output;
          tc "rule reuse path" test_rule_reuse_path;
          tc "arena = legacy on corpus" test_equivalence_corpus;
          tc "push_batch slice" test_push_batch_slice;
          tc "push_batch rejects bad spans" test_push_batch_bad_span;
          tc "iter_rules matches rules" test_iter_rules_matches_rules;
          tc "of_rules rejects other listings" test_of_rules_rejects_other_listings;
          tc "expansion length stops at its bound" test_expansion_length;
          tc "push allocates nothing after warm-up" test_push_allocates_nothing;
          tc "restored grammar holds no more heap" test_restore_heap;
          tc "heap is the live grammar" test_heap_is_live_grammar;
          tc "extension grows a rule" test_extension_grows_rule;
          tc "whole-rule match" test_whole_rule_match;
          tc "extension guards" test_extension_guards;
          tc "extension key collision" test_extension_key_collision;
          tc "no chain absorbed after a wide span" test_chain_after_wide_span;
          tc "stand-in lanes = legacy" test_stand_in_lanes;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip_small_alphabet;
          QCheck_alcotest.to_alcotest prop_invariants_small_alphabet;
          QCheck_alcotest.to_alcotest prop_roundtrip_any;
          QCheck_alcotest.to_alcotest prop_grammar_never_larger;
          QCheck_alcotest.to_alcotest prop_runs;
          QCheck_alcotest.to_alcotest prop_concat_runs;
          QCheck_alcotest.to_alcotest prop_equiv_small_alphabet;
          QCheck_alcotest.to_alcotest prop_equiv_any;
          QCheck_alcotest.to_alcotest prop_equiv_collisions;
          QCheck_alcotest.to_alcotest prop_invariants_every_push;
          QCheck_alcotest.to_alcotest prop_equiv_runs;
          QCheck_alcotest.to_alcotest prop_grammar_size_counts;
          QCheck_alcotest.to_alcotest prop_long_phrases;
          QCheck_alcotest.to_alcotest prop_long_uniform8;
          QCheck_alcotest.to_alcotest prop_long_uniform400;
          QCheck_alcotest.to_alcotest prop_mutated_phrases;
          QCheck_alcotest.to_alcotest prop_chains;
        ] );
    ]
