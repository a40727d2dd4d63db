(* The @perf-guard rules on hand-built BENCH_ormp.json documents: what
   fails, what passes, what is skipped, and when there is nothing to
   compare at all. *)

module J = Ormp_util.Json
module G = Perf_guard

let micro_row ?(words = 0.0) ?held name ns =
  J.Obj
    ([
       ("name", J.String name);
       ("events", J.Int 1000);
       ("ns_per_event", J.Float ns);
       ("minor_words_per_event", J.Float words);
     ]
    @ match held with Some w -> [ ("held_words", J.Int w) ] | None -> [])

let doc ?hotpath ?jobs1 micro =
  J.Obj
    ([ ("mode", J.String "fast"); ("micro", J.List micro) ]
    @ (match hotpath with
      | Some ns -> [ ("hotpath", J.Obj [ ("batched_ns_per_event", J.Float ns) ]) ]
      | None -> [])
    @
    match jobs1 with
    | Some eps ->
      [
        ( "scaling",
          J.Obj
            [ ("rows", J.List [ J.Obj [ ("jobs", J.Int 1); ("events_per_sec", J.Float eps) ] ]) ]
        );
      ]
    | None -> [])

let status =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with G.Pass -> "pass" | G.Fail -> "fail" | G.Skipped -> "skipped"))
    ( = )

let verdict_of ~baseline ~current figure =
  match List.find_opt (fun v -> v.G.figure = figure) (G.compare ~baseline ~current) with
  | Some v -> v.G.status
  | None -> Alcotest.failf "no verdict for %s" figure

let ns_figure = "sequitur: row [/event]"
let words_figure = "sequitur: row [words/event]"

let test_time () =
  let baseline = doc [ micro_row "sequitur: row" 100.0 ] in
  Alcotest.check status "1.6x slower fails" G.Fail
    (verdict_of ~baseline ~current:(doc [ micro_row "sequitur: row" 160.0 ]) ns_figure);
  Alcotest.check status "1.4x slower passes" G.Pass
    (verdict_of ~baseline ~current:(doc [ micro_row "sequitur: row" 140.0 ]) ns_figure);
  Alcotest.check status "hotpath 1.6x slower fails" G.Fail
    (verdict_of ~baseline:(doc ~hotpath:10.0 []) ~current:(doc ~hotpath:16.0 [])
       "hotpath.batched_ns_per_event")

let test_words () =
  let baseline = doc [ micro_row ~words:0.0 "sequitur: row" 100.0 ] in
  let current words = doc [ micro_row ~words "sequitur: row" 100.0 ] in
  Alcotest.check status "0 -> 0.9 words passes on the one-word slack" G.Pass
    (verdict_of ~baseline ~current:(current 0.9) words_figure);
  Alcotest.check status "0 -> 1.2 words fails" G.Fail
    (verdict_of ~baseline ~current:(current 1.2) words_figure)

let test_held_words () =
  let figure = "sequitur: row [held words]" in
  let held w = doc [ micro_row ~held:w "sequitur: row" 100.0 ] in
  Alcotest.check status "the same count passes" G.Pass
    (verdict_of ~baseline:(held 57434) ~current:(held 57434) figure);
  Alcotest.check status "one word more fails" G.Fail
    (verdict_of ~baseline:(held 57434) ~current:(held 57435) figure);
  Alcotest.check status "fewer words pass" G.Pass
    (verdict_of ~baseline:(held 73818) ~current:(held 57434) figure);
  Alcotest.check status "a baseline without the count skips it" G.Skipped
    (verdict_of ~baseline:(doc [ micro_row "sequitur: row" 100.0 ]) ~current:(held 57434) figure);
  Alcotest.(check bool)
    "a row without the count has no such figure" false
    (List.exists
       (fun v -> v.G.figure = figure)
       (G.compare ~baseline:(held 57434) ~current:(doc [ micro_row "sequitur: row" 100.0 ])))

let test_throughput () =
  let figure = "scaling.combined(jobs=1).events_per_sec" in
  Alcotest.check status "1.6x lower events/s fails" G.Fail
    (verdict_of ~baseline:(doc ~jobs1:1.6e6 []) ~current:(doc ~jobs1:1.0e6 []) figure);
  Alcotest.check status "1.4x lower events/s passes" G.Pass
    (verdict_of ~baseline:(doc ~jobs1:1.4e6 []) ~current:(doc ~jobs1:1.0e6 []) figure)

let test_missing_row () =
  let baseline = doc [ micro_row "sequitur: row" 100.0 ] in
  let current = doc [ micro_row "sequitur: row" 100.0; micro_row "leap: new row" 1e9 ] in
  Alcotest.check status "row absent from the baseline is skipped" G.Skipped
    (verdict_of ~baseline ~current "leap: new row [/event]");
  Alcotest.(check int) "the rest still passes" 0 (G.exit_code (G.compare ~baseline ~current))

let test_nothing_comparable () =
  let unguarded = doc [ micro_row "solver: row" 100.0 ] in
  Alcotest.(check int) "no figure in either document" 2
    (G.exit_code (G.compare ~baseline:unguarded ~current:unguarded));
  Alcotest.(check int) "baseline shares no figure with the run" 2
    (G.exit_code
       (G.compare ~baseline:(doc ~hotpath:10.0 []) ~current:(doc [ micro_row "omc: row" 5.0 ])));
  Alcotest.(check int) "a regression exits 1" 1
    (G.exit_code (G.compare ~baseline:(doc ~hotpath:10.0 []) ~current:(doc ~hotpath:20.0 [])))

let () =
  Alcotest.run "perf_guard"
    [
      ( "guard",
        [
          Alcotest.test_case "ns/event ratio" `Quick test_time;
          Alcotest.test_case "minor words slack" `Quick test_words;
          Alcotest.test_case "held words exact" `Quick test_held_words;
          Alcotest.test_case "jobs=1 throughput" `Quick test_throughput;
          Alcotest.test_case "row missing from baseline" `Quick test_missing_row;
          Alcotest.test_case "nothing comparable" `Quick test_nothing_comparable;
        ] );
    ]
