(* The @perf-guard comparison. One reader pulls the gated figures out of a
   BENCH_ormp.json document — the committed baseline and the current run
   alike — and each figure of the current run is judged against the same
   figure of the baseline. Pure: main.exe prints the verdicts and turns
   them into its exit code. *)

module J = Ormp_util.Json

let threshold = 1.5

(* How a figure may move before it fails. [Time] (ns, lower is better):
   more than [threshold]x slower. [Words] (minor words, lower is better):
   above [threshold]x the baseline plus one word — the flat rows sit at
   (or near) zero words/event, where a pure ratio would flag measurement
   noise. [Throughput] (events/s, higher is better): more than
   [threshold]x lower. *)
type rule = Time | Words | Throughput

type status = Pass | Fail | Skipped

type verdict = {
  figure : string;
  rule : rule;
  baseline : float option;
  current : float option;
  status : status;
}

(* Micro rows are guarded per family: every structure this repo has
   flattened stays under both its time and its allocation baseline. *)
let guarded_prefixes = [ "sequitur"; "leap"; "whomp"; "omc"; "range_index" ]

(* The gated figures of one document, in document order. The hotpath and
   scaling figures are always listed (as [None] when the run lacks them);
   micro rows with an event count give per-event time and words (stable
   across a re-sized run), the rest per-run time. *)
let figures doc =
  let num o k =
    match Option.bind (J.member k o) J.to_float with
    | Some f when Float.is_finite f -> Some f
    | _ -> None
  in
  let block k = Option.value ~default:J.Null (J.member k doc) in
  let rows o k = Option.value ~default:[] (Option.bind (J.member k o) J.to_list) in
  let micro =
    List.concat_map
      (fun r ->
        match Option.bind (J.member "name" r) J.to_str with
        | Some name
          when List.exists (fun prefix -> String.starts_with ~prefix name) guarded_prefixes ->
          if Option.value ~default:0 (Option.bind (J.member "events" r) J.to_int) > 0 then
            [
              (name ^ " [/event]", Time, num r "ns_per_event");
              (name ^ " [words/event]", Words, num r "minor_words_per_event");
            ]
          else [ (name, Time, num r "ns_per_run") ]
        | _ -> [])
      (rows doc "micro")
  in
  let jobs1 = List.find_opt (fun r -> num r "jobs" = Some 1.0) (rows (block "scaling") "rows") in
  (("hotpath.batched_ns_per_event", Time, num (block "hotpath") "batched_ns_per_event") :: micro)
  @ [
      ( "scaling.combined(jobs=1).events_per_sec",
        Throughput,
        Option.bind jobs1 (fun r -> num r "events_per_sec") );
    ]

let limit b = (b *. threshold) +. 1.0

let judge rule base cur =
  match (rule, base, cur) with
  | Time, Some b, Some c when b > 0.0 -> if c /. b > threshold then Fail else Pass
  | Words, Some b, Some c -> if c > limit b then Fail else Pass
  | Throughput, Some b, Some c when b > 0.0 && c > 0.0 ->
    if b /. c > threshold then Fail else Pass
  | _ -> Skipped

let compare ~baseline ~current =
  let base = figures baseline in
  List.map
    (fun (figure, rule, cur) ->
      let b =
        Option.bind (List.find_opt (fun (f, _, _) -> f = figure) base) (fun (_, _, v) -> v)
      in
      { figure; rule; baseline = b; current = cur; status = judge rule b cur })
    (figures current)

(* 0 when every compared figure holds, 1 when one regressed, 2 when
   nothing was comparable (the run or the baseline lacks every figure). *)
let exit_code verdicts =
  if List.exists (fun v -> v.status = Fail) verdicts then 1
  else if List.for_all (fun v -> v.status = Skipped) verdicts then 2
  else 0

let line v =
  let word = if v.status = Fail then "FAIL" else "ok" in
  match (v.status, v.baseline, v.current) with
  | (Pass | Fail), Some b, Some c -> (
    match v.rule with
    | Time -> Printf.sprintf "  %-56s %10.2f -> %10.2f ns  %5.2fx  %s" v.figure b c (c /. b) word
    | Words ->
      Printf.sprintf "  %-56s %10.2f -> %10.2f w   limit %.2f  %s" v.figure b c (limit b) word
    | Throughput ->
      Printf.sprintf "  %-56s %10.0f -> %10.0f ev/s %4.2fx  %s" v.figure b c (b /. c) word)
  | _ -> Printf.sprintf "  %-56s not in both runs - skipped" v.figure
