(* Facade for the telemetry layer: one module to open at instrumentation
   sites and one entry point for the CLI to dump everything a run
   collected. See DESIGN.md §10 for the metric and span schema. *)

module Control = Control
module Log = Log
module Metrics = Metrics
module Spans = Spans
module Heartbeat = Heartbeat
module Flight = Flight

let on = Control.on
let enable = Control.enable
let disable = Control.disable

let now_ns = Ormp_util.Clock.now_ns

let span = Spans.span

(* Export file names under the --telemetry directory. *)
let metrics_json_file = "metrics.json"
let trace_file = "trace.json"

let write_reports ~dir =
  Ormp_util.Fs.mkdirs dir;
  let write_json name j =
    let oc = open_out (Filename.concat dir name) in
    output_string oc (Ormp_util.Json.to_string j);
    output_char oc '\n';
    close_out oc
  in
  write_json metrics_json_file (Metrics.to_json (Metrics.snapshot ()));
  write_json trace_file (Spans.to_json ())

let reset () =
  Metrics.reset ();
  Spans.reset ()
