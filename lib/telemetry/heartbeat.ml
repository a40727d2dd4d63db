(* Heartbeat samples: periodic one-line progress records for a long
   profiling session.

   Written append-only as one s-expression per line so a crashed session
   leaves a readable prefix and `ormp session status --watch` can tail the
   file without any framing protocol. Fields capture the rates the paper
   cares about (events/sec through the profiler) plus the state sizes
   that govern memory: live objects in the OMC, grammar symbols across
   the Sequitur dimensions, LEAP streams, and the on-disk journal and
   snapshot footprint. *)

type sample = {
  wall_s : float;  (** seconds since session start (monotonic) *)
  position : int;  (** events consumed so far *)
  events_per_sec : float;  (** since the previous sample *)
  live_objects : int;
  grammar_symbols : int;  (** sum over all grammar dimensions *)
  leap_streams : int;
  journal_bytes : int;
  snapshot_bytes : int;  (** newest snapshot on disk; 0 before the first *)
  last_checkpoint : int;  (** position of the newest checkpoint; 0 if none *)
  degraded : string list;  (** active degradation kinds, e.g. checkpointing *)
}

module W = Ormp_util.Sexp.Writer
module R = Ormp_util.Sexp.Reader

(* Rates and times as [%.6g]: a reader takes back only that spelling. *)
let float_text v = Printf.sprintf "%.6g" v

let write w s =
  let float name v =
    W.flat w name;
    W.atom w (float_text v);
    W.close w
  in
  W.list w;
  float "wall_s" s.wall_s;
  W.int_field w "position" s.position;
  float "events_per_sec" s.events_per_sec;
  W.int_field w "live_objects" s.live_objects;
  W.int_field w "grammar_symbols" s.grammar_symbols;
  W.int_field w "leap_streams" s.leap_streams;
  W.int_field w "journal_bytes" s.journal_bytes;
  W.int_field w "snapshot_bytes" s.snapshot_bytes;
  W.int_field w "last_checkpoint" s.last_checkpoint;
  W.flat w "degraded";
  List.iter (W.atom w) s.degraded;
  W.close w;
  W.close w

let read r =
  let float name =
    R.flat r name;
    let a = R.atom r in
    R.close r;
    match float_of_string_opt a with
    | Some v when float_text v = a -> v
    | _ -> R.fail r (name ^ ": expected a number as %.6g writes it")
  in
  R.list r;
  let wall_s = float "wall_s" in
  let position = R.int_field r "position" in
  let events_per_sec = float "events_per_sec" in
  let live_objects = R.int_field r "live_objects" in
  let grammar_symbols = R.int_field r "grammar_symbols" in
  let leap_streams = R.int_field r "leap_streams" in
  let journal_bytes = R.int_field r "journal_bytes" in
  let snapshot_bytes = R.int_field r "snapshot_bytes" in
  let last_checkpoint = R.int_field r "last_checkpoint" in
  R.flat r "degraded";
  let degraded = ref [] in
  while R.more r do
    degraded := R.atom r :: !degraded
  done;
  R.close r;
  R.close r;
  {
    wall_s;
    position;
    events_per_sec;
    live_objects;
    grammar_symbols;
    leap_streams;
    journal_bytes;
    snapshot_bytes;
    last_checkpoint;
    degraded = List.rev !degraded;
  }

let append path s =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (W.render write s);
  output_char oc '\n';
  close_out oc

(* Loads every well-formed line; a torn trailing line (crash mid-write)
   is skipped rather than failing the whole file. *)
let load path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line -> Result.to_option (R.run line read))
