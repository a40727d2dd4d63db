(* The repo benchmark: one definition of dilation, four workloads, and a
   per-layer ledger. See e2e/README.md for the metric definitions and
   e2e/run.py for the build-and-run wrapper.

   Usage: e2e.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
                  [--json PATH] [--smoke] [W...]

   End-to-end metrics come from untraced timed rounds (--trace 0); the
   per-layer metrics from a separate traced pass (--trace 1); without
   --trace both run. The last line of output is one JSON object with
   correct/attempted/failed and the metrics of the selected pass. *)

module Event = Ormp_trace.Event
module Runner = Ormp_vm.Runner
module Config = Ormp_vm.Config
module Program = Ormp_vm.Program
module Registry = Ormp_workloads.Registry
module Cdc = Ormp_core.Cdc
module Omc = Ormp_core.Omc
module Seq = Ormp_sequitur.Sequitur
module Leap = Ormp_leap.Leap
module Compressor = Ormp_lmad.Compressor
module Client = Ormp_server.Client
module W = Wiring

let ( // ) = Filename.concat
let now_s = Ormp_util.Clock.now_s

(* --- files --------------------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every run writes into a fresh directory that is deleted after its
   bytes are checked: overwriting an existing profile file costs tens of
   ms of filesystem writeback on truncation, which is not persist cost. *)
let tmp_root = ".e2e-tmp" // string_of_int (Unix.getpid ())
let fresh_count = ref 0

let fresh_dir () =
  incr fresh_count;
  let dir = tmp_root // Printf.sprintf "r%d" !fresh_count in
  Unix.mkdir dir 0o755;
  dir

let profile_files = [ W.whomp_file; W.rasg_file; W.leap_file ]

(* --- samples -------------------------------------------------------------- *)

let median = Ormp_util.Stats.median

(* The highest percentile with at least ten samples beyond it
   (nearest rank), as (label, value). *)
let tail xs =
  let n = List.length xs in
  List.find_map
    (fun (label, p) ->
      if n - int_of_float (ceil (p /. 100.0 *. float_of_int n)) >= 10 then
        Some (label, Ormp_util.Stats.percentile xs p)
      else None)
    [ ("p99.9", 99.9); ("p99", 99.0); ("p95", 95.0); ("p90", 90.0); ("p75", 75.0) ]

(* --- metric names ------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("dilation", "x");
    ("events_per_s", "ev/s");
    ("profile_bytes", "B");
    ("leap_capture", "fraction");
    ("heap_mb", "MiB");
  ]

let table1_programs = List.map (fun (e : Registry.entry) -> e.name) Registry.spec

let per_layer =
  let grammar g = [ ("sequitur." ^ g ^ ".ns_per_symbol", "ns"); ("sequitur." ^ g ^ ".symbols", "count") ] in
  [
    ("vm.ns_per_event", "ns");
    ("trace.ns_per_event", "ns");
    ("trace.events_per_chunk", "count");
    ("core.ns_per_event", "ns");
    ("core.mru_hit_rate", "fraction");
    ("core.live_objects", "count");
    ("core.wild", "count");
  ]
  @ List.concat_map grammar (Array.to_list W.grammar_names)
  @ [
      ("leap.ns_per_tuple", "ns");
      ("leap.streams", "count");
      ("lmad.descriptors", "count");
      ("leap.finish_ms", "ms");
      ("persist.whomp_ms", "ms");
      ("persist.rasg_ms", "ms");
      ("persist.leap_ms", "ms");
      ("persist.whomp_bytes", "B");
      ("persist.rasg_bytes", "B");
      ("persist.leap_bytes", "B");
      ("persist.mb_per_s", "MB/s");
      ("gc.minor_words_per_event", "words/ev");
      ("gc.major_words_per_event", "words/ev");
      ("gc.major_collections", "count");
      ("server.session_ms", "ms");
      ("server.pipeline_ms", "ms");
      ("server.journal_ns_per_event", "ns");
      ("server.wire_encode_ns_per_event", "ns");
      ("server.wire_decode_ns_per_event", "ns");
      ("server.frames_per_session", "count");
      ("server.acks_per_session", "count");
      ("server.reconnects", "count");
      ("server.sheds", "count");
      ("server.ack_p50_ms", "ms");
      ("server.ack_p99_ms", "ms");
      ("server.ack_p999_ms", "ms");
      ("server.unexplained_ms", "ms");
      ("ledger.unexplained_pct", "%");
      ("ledger.trace_overhead_pct", "%");
    ]
  @ List.map (fun p -> ("table1." ^ p ^ ".dilation", "x")) table1_programs

(* --- one workload's report ---------------------------------------------------- *)

type report = {
  workload : string;
  values : (string, float list) Hashtbl.t;  (* metric -> samples *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable ledger : string;  (* the stage medians, ms per round, for the text report *)
}

let put r name samples = Hashtbl.replace r.values name samples
let put1 r name v = put r name [ v ]

let fail r fmt =
  Printf.ksprintf
    (fun msg ->
      r.failed <- r.failed + 1;
      r.problems <- msg :: r.problems)
    fmt

(* Run one profile run (or session) as an attempt: an exception counts
   it failed and yields None. *)
let attempt r what f =
  r.attempted <- r.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
    fail r "%s raised %s" what (Printexc.to_string e);
    None

(* A run whose files differ from the reference counts as one failure. *)
let check_files r ~what ~refs dir =
  let bad =
    List.filter_map
      (fun (file, want) ->
        match read_file (dir // file) with
        | got when got = want -> None
        | _ -> Some file
        | exception Sys_error _ -> Some (file ^ " (missing)"))
      refs
  in
  if bad <> [] then fail r "%s: %s differ from the reference" what (String.concat ", " bad)

(* --- set-up ------------------------------------------------------------------- *)

(* One program of a workload, with its recorded event count and the
   reference profile bytes every run of it is compared against. *)
type prog = { name : string; program : Program.t; events : int; refs : (string * string) list }

type prepared =
  | Full of prog
  | Table1 of prog list
  | Serve of { prog : prog; stream : Event.t array; daemon : Serve.daemon }

let record ~config program =
  let buf = Ormp_util.Vec.create () in
  ignore (Runner.run ~config program (Ormp_util.Vec.push buf));
  Ormp_util.Vec.to_array buf

let read_refs dir files = List.map (fun f -> (f, read_file (dir // f))) files

(* Full-stack references come from Client.reference: the serial
   Pipeline over the recorded stream, where the timed runs feed it live
   from the VM (untraced) or make its calls one by one (traced). *)
let full_prog ~config ~dir name program =
  let stream = record ~config program in
  Client.reference ~dir ~events:stream;
  ({ name; program; events = Array.length stream; refs = read_refs dir profile_files }, stream)

(* LEAP references come from the per-event Leap.sink path, a separate
   serial wiring about six times cheaper than the full pipeline. *)
let leap_prog ~config ~dir name program =
  let sink, fin = Leap.sink ~site_name:W.site_name () in
  let events = ref 0 in
  ignore
    (Runner.run ~config program (fun ev ->
         incr events;
         sink ev));
  Ormp_persist.Leap_io.save (dir // W.leap_file) (fin ~elapsed:0.0);
  { name; program; events = !events; refs = read_refs dir [ W.leap_file ] }

let workloads = [ "gzip-full"; "vpr-full"; "table1-leap"; "serve-churn" ]

let churn () = Ormp_workloads.Micro.churn ~live:64 ~ops:20000 ()

(* vpr-full runs 175.vpr-like a little under its bench scale (6000).
   There the object grammar's tables sit on a capacity doubling, so one
   seed in five or so holds 2 MiB (10%) less heap than the rest; at 5500
   every grammar's capacities are the same for 59 seeds in 60. *)
let vpr_scale = 5500

let setup ~bench ~config ~dir workload =
  Unix.mkdir dir 0o755;
  let entry name = Registry.find name in
  let registry name = Registry.program ~bench (entry name) in
  match workload with
  | "gzip-full" -> Full (fst (full_prog ~config ~dir "164.gzip-like" (registry "164.gzip-like")))
  | "vpr-full" ->
    let e = entry "175.vpr-like" in
    let program = if bench then e.make ~scale:vpr_scale else Registry.program e in
    Full (fst (full_prog ~config ~dir "175.vpr-like" program))
  | "table1-leap" ->
    Table1
      (List.map
         (fun name ->
           let d = dir // name in
           Unix.mkdir d 0o755;
           leap_prog ~config ~dir:d name (registry name))
         table1_programs)
  | "serve-churn" ->
    let program = if bench then churn () else Ormp_workloads.Micro.churn () in
    let prog, stream = full_prog ~config ~dir "churn" program in
    Serve { prog; stream; daemon = Serve.start ~dir }
  | w -> invalid_arg ("unknown workload " ^ w)

let teardown = function Serve s -> Serve.stop s.daemon | Full _ | Table1 _ -> ()

(* Verify.{whomp,leap}_profile once per program, on the reference
   files; returns the LEAP profiles for the capture figure. *)
let verify r ~dir prepared =
  let leap d =
    r.attempted <- r.attempted + 1;
    match Ormp_persist.Leap_io.load (d // W.leap_file) with
    | Error e -> fail r "reference leap profile unreadable: %s" e; None
    | Ok p ->
      (match Ormp_check.Verify.leap_profile p with
      | Ok () -> ()
      | Error e -> fail r "Verify.leap_profile: %s" e);
      Some p
  in
  let whomp d =
    r.attempted <- r.attempted + 1;
    match Ormp_persist.Whomp_io.load (d // W.whomp_file) with
    | Error e -> fail r "reference whomp profile unreadable: %s" e
    | Ok p -> (
      match Ormp_check.Verify.whomp_profile p with
      | Ok () -> ()
      | Error e -> fail r "Verify.whomp_profile: %s" e)
  in
  match prepared with
  | Full _ | Serve _ ->
    whomp dir;
    Option.to_list (leap dir)
  | Table1 progs -> List.filter_map (fun (p : prog) -> leap (dir // p.name)) progs

(* Live heap held by a run's profiler state: full major collections
   around the run, the state kept reachable across the second. *)
let held_heap_mb f =
  Gc.full_major ();
  let before = (Gc.stat ()).live_words in
  let state = f () in
  Gc.full_major ();
  let after = (Gc.stat ()).live_words in
  ignore (Sys.opaque_identity state);
  float_of_int ((after - before) * (Sys.word_size / 8)) /. 1048576.0

(* --- the untraced pass: end-to-end metrics ------------------------------------- *)

type budget = { seconds : float; min_rounds : int; max_rounds : int; warmup : int }

let loop b f =
  let deadline = now_s () +. b.seconds in
  let k = ref 0 in
  while !k < b.min_rounds || (!k < b.max_rounds && now_s () < deadline) do
    f !k;
    incr k
  done

(* One timed profile run into a fresh directory, with the written bytes
   checked against the reference afterwards. [run] is one of Wiring's
   runs; [state] is what it returns. *)
type 'a timed = { wall : float; state : 'a; gc0 : Gc.stat; gc1 : Gc.stat }

let timed_run r (p : prog) run =
  let dir = fresh_dir () in
  (* Each run starts from a collected heap, as a run in a fresh process
     would, rather than paying for the previous run's garbage. *)
  Gc.full_major ();
  let result =
    attempt r p.name (fun () ->
        let gc0 = Gc.quick_stat () in
        let t0 = now_s () in
        let state = run ~dir p.program in
        let wall = now_s () -. t0 in
        { wall; state; gc0; gc1 = Gc.quick_stat () })
  in
  if Option.is_some result then check_files r ~what:p.name ~refs:p.refs dir;
  rm_rf dir;
  result

(* The untraced run: the path users run. *)
let untraced_run r ~config ~leap_only p =
  let wall t = t.wall in
  if leap_only then Option.map wall (timed_run r p (W.leap ~config))
  else Option.map wall (timed_run r p (W.pipeline ~config))

(* Live heap held by the profiler state of one untraced run per
   program. *)
let held_runs r ~config ~leap_only progs =
  let hold run = held_heap_mb (fun () -> List.map (fun p -> timed_run r p run) progs) in
  if leap_only then hold (W.leap ~config) else hold (W.pipeline ~config)

let profile_bytes progs =
  List.fold_left
    (fun acc (p : prog) ->
      List.fold_left (fun acc (_, s) -> acc + String.length s) acc p.refs)
    0 progs

let progs_of = function
  | Full p -> ([ p ], false)
  | Table1 ps -> (ps, true)
  | Serve s -> ([ s.prog ], false)

(* One closed-loop session; a shed or a reconnect counts it failed. *)
let serve_session r daemon (prog : prog) stream acks =
  let token = Printf.sprintf "s%d" !fresh_count in
  incr fresh_count;
  r.attempted <- r.attempted + 1;
  match Serve.session daemon ~token ~events:stream ~acks_into:acks with
  | Error e ->
    fail r "session %s: %s" token e;
    None
  | Ok s ->
    let dir = Serve.session_dir daemon token in
    if s.sheds > 0 || s.reconnects > 0 then
      fail r "session %s: %d sheds, %d reconnects" token s.sheds s.reconnects
    else check_files r ~what:("session " ^ token) ~refs:prog.refs dir;
    rm_rf dir;
    Some s

let untraced r ~config ~budget prepared =
  let dilation = ref [] and eps = ref [] in
  let sample ~events ~wall d =
    dilation := d :: !dilation;
    eps := (float_of_int events /. wall) :: !eps
  in
  let measure round record =
    for _ = 1 to budget.warmup do
      ignore (round ())
    done;
    loop budget (fun _ -> Option.iter record (round ()))
  in
  (match prepared with
  | Full _ | Table1 _ ->
    let progs, leap_only = progs_of prepared in
    let natives = List.map (fun (p : prog) -> (p, W.native ~config p.program)) progs in
    let round () =
      let rows =
        List.filter_map
          (fun (p, native) ->
            let nat = W.time_batch native in
            Option.map (fun wall -> (p, wall, nat)) (untraced_run r ~config ~leap_only p))
          natives
      in
      if List.length rows = List.length progs then Some rows else None
    in
    (* Over several programs the round's dilation is the mean of theirs
       (Table 1's Average row). *)
    measure round (fun rows ->
        let sum f = List.fold_left (fun acc row -> acc +. f row) 0.0 rows in
        sample
          ~events:(List.fold_left (fun acc ((p : prog), _, _) -> acc + p.events) 0 rows)
          ~wall:(sum (fun (_, wall, _) -> wall))
          (sum (fun (_, wall, nat) -> wall /. nat) /. float_of_int (List.length rows)));
    put1 r "heap_mb" (held_runs r ~config ~leap_only progs)
  | Serve { prog; stream; daemon } ->
    let native = W.native ~config prog.program in
    let acks = Serve.acks () in
    let nat = ref 0.0 and sessions = ref 0 in
    let session () =
      (* The native time is re-measured every ten sessions. *)
      if !sessions mod 10 = 0 then nat := W.time_batch native;
      incr sessions;
      serve_session r daemon prog stream acks
    in
    measure session (fun (s : Serve.session) ->
        sample ~events:prog.events ~wall:s.wall_s (s.wall_s /. !nat));
    (* A daemon session holds the serial pipeline's state. *)
    put1 r "heap_mb" (held_runs r ~config ~leap_only:false [ prog ]));
  put r "dilation" !dilation;
  put r "events_per_s" !eps

(* --- the traced pass: per-layer metrics ----------------------------------------- *)

(* Per-round sums over a workload's programs. *)
type round = {
  mutable untraced_s : float;
  mutable traced_s : float;
  mutable vm_s : float;
  mutable staging_s : float;
  ns : int array;
  mutable events : int;
  mutable collected : int;
  mutable accesses : int;
  mutable chunks : int;
  mutable minor_words : float;
  mutable major_words : float;
  mutable major_collections : int;
  mutable runs : int;
}

let new_round () =
  {
    untraced_s = 0.0;
    traced_s = 0.0;
    vm_s = 0.0;
    staging_s = 0.0;
    ns = Array.make W.n_stages 0;
    events = 0;
    collected = 0;
    accesses = 0;
    chunks = 0;
    minor_words = 0.0;
    major_words = 0.0;
    major_collections = 0;
    runs = 0;
  }

let ms_of_ns ns = float_of_int ns /. 1e6
let per x n = if n = 0 then 0.0 else x /. float_of_int n

(* The layer counters of one traced run's state, summed over programs
   (the MRU hit rate is averaged). *)
let counters r ~leap_only (runs : (prog * W.run) list) =
  let sum f = float_of_int (List.fold_left (fun acc (_, run) -> acc + f run) 0 runs) in
  let omc (run : W.run) = Cdc.omc run.cdc in
  put1 r "core.mru_hit_rate"
    (List.fold_left (fun acc (_, run) -> acc +. Omc.cache_hit_rate (omc run)) 0.0 runs
    /. float_of_int (List.length runs));
  put1 r "core.live_objects" (sum (fun run -> Omc.live_objects (omc run)));
  put1 r "core.wild" (sum (fun run -> Cdc.wild run.cdc));
  Array.iteri
    (fun i g ->
      put1 r ("sequitur." ^ g ^ ".symbols")
        (if leap_only then 0.0 else sum (fun run -> Seq.grammar_size run.grammars.(i))))
    W.grammar_names;
  put1 r "leap.streams" (sum (fun run -> List.length run.leap.Leap.streams));
  put1 r "lmad.descriptors"
    (sum (fun run ->
         List.fold_left
           (fun acc (_, (s : Leap.stream)) ->
             acc + List.length (Compressor.lmads s.comp) + List.length (Compressor.lmads s.off))
           0 run.leap.Leap.streams));
  List.iter
    (fun (metric, file) ->
      put1 r metric
        (float_of_int
           (List.fold_left
              (fun acc ((p : prog), _) ->
                acc + Option.fold ~none:0 ~some:String.length (List.assoc_opt file p.refs))
              0 runs)))
    [
      ("persist.whomp_bytes", W.whomp_file);
      ("persist.rasg_bytes", W.rasg_file);
      ("persist.leap_bytes", W.leap_file);
    ]

(* Ledger rounds: per program, the native timer (vm), the no-op staging
   timer (vm + trace), one untraced and one traced profile run, in an
   order that alternates round by round. Returns the round records. *)
let ledger r ~config ~budget ~leap_only progs =
  let timers =
    List.map
      (fun (p : prog) -> (p, W.native ~config p.program, W.staging ~config ~full:(not leap_only) p.program))
      progs
  in
  let rounds = ref [] and last = ref [] in
  let dilations = Hashtbl.create 8 in
  let round k =
    let rd = new_round () in
    let ok = ref true in
    let traced p =
      let run = if leap_only then W.traced_leap rd.ns ~config else W.traced_pipeline rd.ns ~config in
      match timed_run r p run with
      | None -> ok := false
      | Some { wall; state = run; gc0 = g0; gc1 = g1 } ->
        rd.traced_s <- rd.traced_s +. wall;
        rd.minor_words <- rd.minor_words +. (g1.minor_words -. g0.minor_words);
        rd.major_words <- rd.major_words +. (g1.major_words -. g0.major_words);
        rd.major_collections <- rd.major_collections + (g1.major_collections - g0.major_collections);
        rd.collected <- rd.collected + Cdc.collected run.W.cdc;
        rd.accesses <- rd.accesses + run.accesses;
        rd.chunks <- rd.chunks + run.chunks;
        last := (p, run) :: !last
    in
    let untraced (p : prog) native =
      match untraced_run r ~config ~leap_only p with
      | None -> ok := false
      | Some wall ->
        rd.untraced_s <- rd.untraced_s +. wall;
        let prev = Option.value ~default:[] (Hashtbl.find_opt dilations p.name) in
        Hashtbl.replace dilations p.name ((wall /. native) :: prev)
    in
    last := [];
    List.iter
      (fun ((p : prog), native, staging) ->
        let vm = W.time_batch native in
        rd.vm_s <- rd.vm_s +. vm;
        rd.staging_s <- rd.staging_s +. W.time_batch staging;
        rd.events <- rd.events + p.events;
        rd.runs <- rd.runs + 1;
        if k mod 2 = 0 then begin
          untraced p vm;
          traced p
        end
        else begin
          traced p;
          untraced p vm
        end)
      timers;
    if !ok then rounds := rd :: !rounds
  in
  (* One warm-up round. *)
  round 0;
  rounds := [];
  Hashtbl.reset dilations;
  loop budget round;
  counters r ~leap_only (List.rev !last);
  if leap_only then
    Hashtbl.iter (fun name ds -> put r ("table1." ^ name ^ ".dilation") ds) dilations;
  !rounds

let layer_metrics r ~leap_only rounds =
  let each name = put r name in
  let samples f = List.map f rounds in
  (* The CDC/OMC self time: the clocked calls into the CDC batch minus
     the tuple callbacks they made. *)
  let core_ns (rd : round) =
    float_of_int (List.fold_left (fun acc s -> acc - rd.ns.(s)) rd.ns.(W.s_cdc) W.tuple_slots)
  in
  each "vm.ns_per_event" (samples (fun rd -> per (rd.vm_s *. 1e9) rd.events));
  each "trace.ns_per_event" (samples (fun rd -> per ((rd.staging_s -. rd.vm_s) *. 1e9) rd.events));
  each "trace.events_per_chunk" (samples (fun rd -> per (float_of_int rd.collected) rd.chunks));
  each "core.ns_per_event" (samples (fun rd -> per (core_ns rd) rd.events));
  Array.iteri
    (fun i g ->
      each ("sequitur." ^ g ^ ".ns_per_symbol")
        (samples (fun rd ->
             if leap_only then 0.0
             else per (float_of_int rd.ns.(i)) (if i = W.s_rasg then rd.accesses else rd.collected))))
    W.grammar_names;
  each "leap.ns_per_tuple" (samples (fun rd -> per (float_of_int rd.ns.(W.s_leap)) rd.collected));
  each "leap.finish_ms" (samples (fun rd -> ms_of_ns rd.ns.(W.s_finish)));
  each "persist.whomp_ms" (samples (fun rd -> ms_of_ns rd.ns.(W.s_save_whomp)));
  each "persist.rasg_ms" (samples (fun rd -> ms_of_ns rd.ns.(W.s_save_rasg)));
  each "persist.leap_ms" (samples (fun rd -> ms_of_ns rd.ns.(W.s_save_leap)));
  let bytes =
    List.fold_left (fun acc m -> acc +. List.hd (Hashtbl.find r.values m)) 0.0
      [ "persist.whomp_bytes"; "persist.rasg_bytes"; "persist.leap_bytes" ]
  in
  each "persist.mb_per_s"
    (samples (fun rd ->
         let ns = rd.ns.(W.s_save_whomp) + rd.ns.(W.s_save_rasg) + rd.ns.(W.s_save_leap) in
         bytes /. 1e6 /. (float_of_int ns /. 1e9)));
  each "gc.minor_words_per_event" (samples (fun rd -> per rd.minor_words rd.events));
  each "gc.major_words_per_event" (samples (fun rd -> per rd.major_words rd.events));
  each "gc.major_collections" (samples (fun rd -> per (float_of_int rd.major_collections) rd.runs));
  (* The ledger: every stage as a median ms per round, against the
     untraced profile wall. *)
  let stage f = median (samples f) in
  let ms s = s *. 1e3 in
  let stages =
    [
      ("vm", stage (fun rd -> ms rd.vm_s));
      ("trace", stage (fun rd -> ms (rd.staging_s -. rd.vm_s)));
      ("core", stage (fun rd -> core_ns rd /. 1e6));
    ]
    @ List.map
        (fun (name, s) -> (name, stage (fun rd -> ms_of_ns rd.ns.(s))))
        [
          ("instr", W.s_instr);
          ("group", W.s_group);
          ("object", W.s_object);
          ("offset", W.s_offset);
          ("rasg", W.s_rasg);
          ("leap", W.s_leap);
          ("finish", W.s_finish);
          ("save.whomp", W.s_save_whomp);
          ("save.rasg", W.s_save_rasg);
          ("save.leap", W.s_save_leap);
        ]
  in
  let untraced = stage (fun rd -> ms rd.untraced_s) in
  let traced = stage (fun rd -> ms rd.traced_s) in
  r.ledger <-
    Printf.sprintf "untraced %.2f, traced %.2f; %s" untraced traced
      (String.concat ", " (List.map (fun (name, v) -> Printf.sprintf "%s %.2f" name v) stages));
  put1 r "ledger.unexplained_pct"
    (100.0 *. (untraced -. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 stages) /. untraced);
  put1 r "ledger.trace_overhead_pct" (100.0 *. ((traced /. untraced) -. 1.0))

(* The server layers, on serve-churn only: closed-loop sessions, then
   the serial pipeline, the journal and the wire codec on their own. *)
let server_metrics r ~budget (prog : prog) stream daemon =
  let acks = Serve.acks () in
  let sessions = ref [] in
  loop budget (fun _ ->
      Option.iter (fun s -> sessions := s :: !sessions) (serve_session r daemon prog stream acks));
  let ss f = List.map f !sessions in
  put r "server.session_ms" (ss (fun s -> s.Serve.wall_s *. 1e3));
  put r "server.frames_per_session" (ss (fun s -> float_of_int s.Serve.frames));
  put r "server.acks_per_session" (ss (fun s -> float_of_int s.Serve.acks));
  put1 r "server.reconnects" (List.fold_left ( +. ) 0.0 (ss (fun s -> float_of_int s.Serve.reconnects)));
  put1 r "server.sheds" (List.fold_left ( +. ) 0.0 (ss (fun s -> float_of_int s.Serve.sheds)));
  put1 r "server.ack_p50_ms" (1e3 *. Ormp_util.Histogram.quantile acks 0.5);
  put1 r "server.ack_p99_ms" (1e3 *. Ormp_util.Histogram.quantile acks 0.99);
  put1 r "server.ack_p999_ms" (1e3 *. Ormp_util.Histogram.quantile acks 0.999);
  let frames = Serve.frames stream in
  let msgs = List.map fst frames in
  let events = float_of_int (Array.length stream) in
  let pipeline = ref [] and journal = ref [] and enc = ref [] and dec = ref [] in
  loop { budget with seconds = budget.seconds /. 2.0 } (fun _ ->
      let dir = fresh_dir () in
      (match
         attempt r "pipeline" (fun () ->
             let t0 = now_s () in
             Client.reference ~dir ~events:stream;
             now_s () -. t0)
       with
      | Some s ->
        check_files r ~what:"pipeline" ~refs:prog.refs dir;
        pipeline := (s *. 1e3) :: !pipeline
      | None -> ());
      let j = Serve.time_journal ~path:(dir // "journal.trace") ~events:stream ~frames in
      journal := (j *. 1e9 /. events) :: !journal;
      let e, d = Serve.time_wire msgs in
      enc := (e *. 1e9 /. events) :: !enc;
      dec := (d *. 1e9 /. events) :: !dec;
      rm_rf dir);
  put r "server.pipeline_ms" !pipeline;
  put r "server.journal_ns_per_event" !journal;
  put r "server.wire_encode_ns_per_event" !enc;
  put r "server.wire_decode_ns_per_event" !dec;
  let m name = median (Hashtbl.find r.values name) in
  let per_event_ms name = m name *. events /. 1e6 in
  put1 r "server.unexplained_ms"
    (m "server.session_ms" -. m "server.pipeline_ms"
    -. per_event_ms "server.journal_ns_per_event"
    -. per_event_ms "server.wire_encode_ns_per_event"
    -. per_event_ms "server.wire_decode_ns_per_event")

let traced r ~config ~budget prepared =
  match prepared with
  | Full _ | Table1 _ ->
    let progs, leap_only = progs_of prepared in
    layer_metrics r ~leap_only (ledger r ~config ~budget ~leap_only progs)
  | Serve { prog; stream; daemon } ->
    (* The in-process layers of the churn stream's full-stack run (40%
       of the time), then the serving layers: sessions (40%), and the
       pipeline, journal and wire on their own (20%). *)
    let share f = { budget with seconds = budget.seconds *. f } in
    layer_metrics r ~leap_only:false (ledger r ~config ~budget:(share 0.4) ~leap_only:false [ prog ]);
    server_metrics r ~budget:(share 0.4) prog stream daemon

(* --- main ------------------------------------------------------------------------ *)

let run_workload ~bench ~config ~budget ~passes ~setups workload =
  let r =
    { workload; values = Hashtbl.create 64; attempted = 0; failed = 0; problems = []; ledger = "" }
  in
  Gc.compact ();
  (* Set-up runs several times and reports the median; the last one is
     kept. *)
  let setup_times = ref [] and kept = ref None in
  for i = 1 to setups do
    Option.iter (fun (p, dir) -> teardown p; rm_rf dir) !kept;
    let dir = tmp_root // Printf.sprintf "setup%d" i in
    let t0 = now_s () in
    let p = setup ~bench ~config ~dir workload in
    setup_times := (now_s () -. t0) :: !setup_times;
    kept := Some (p, dir)
  done;
  let prepared, dir = Option.get !kept in
  Fun.protect
    ~finally:(fun () ->
      teardown prepared;
      rm_rf dir)
    (fun () ->
      let leaps = verify r ~dir prepared in
      put r "setup_s" !setup_times;
      put1 r "leap_capture"
        (Ormp_util.Stats.mean (List.map Leap.accesses_captured leaps));
      put1 r "profile_bytes"
        (float_of_int (profile_bytes (fst (progs_of prepared))));
      Gc.compact ();
      if List.mem `Untraced passes then untraced r ~config ~budget prepared;
      if List.mem `Traced passes then traced r ~config ~budget prepared);
  r

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let print_report r names =
  Printf.printf "== %s: %d attempted, %d failed\n" r.workload r.attempted r.failed;
  List.iter
    (fun (name, unit_) ->
      match Hashtbl.find_opt r.values name with
      | None -> ()
      | Some xs ->
        let tl =
          match tail xs with
          | Some (label, v) -> Printf.sprintf "%s %s" label (fmt_value v)
          | None -> "-"
        in
        Printf.printf "  %-34s %-9s median %-14s %-20s n=%d\n" name unit_ (fmt_value (median xs))
          tl (List.length xs))
    names;
  if r.ledger <> "" then Printf.printf "  ledger, ms per round: %s\n" r.ledger;
  List.iter (Printf.printf "  FAILED: %s\n") (List.rev r.problems);
  flush stdout

(* A metric a workload never measured reads 0 (e.g. the server layers
   outside serve-churn). *)
let value r name = match Hashtbl.find_opt r.values name with Some xs -> median xs | None -> 0.0

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let final_line reports names =
  let single = List.length reports = 1 in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun (name, unit_) ->
            let key = if single then name else r.workload ^ "/" ^ name in
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" key (json_number (value r name)) unit_)
          names)
      reports
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let failed = sum (fun r -> r.failed) in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) (sum (fun r -> r.attempted)) failed (String.concat ", " metrics)

let write_json ~path ~seed reports =
  let module J = Ormp_util.Json in
  let metric r (name, unit_) =
    match Hashtbl.find_opt r.values name with
    | None -> None
    | Some xs ->
      let tl = tail xs in
      Some
        ( name,
          J.Obj
            [
              ("unit", J.String unit_);
              ("median", J.Float (median xs));
              ("tail", match tl with Some (_, v) -> J.Float v | None -> J.Null);
              ("tail_pct", match tl with Some (l, _) -> J.String l | None -> J.Null);
              ("n", J.Int (List.length xs));
            ] )
  in
  let doc =
    J.Obj
      [
        ("seed", J.Int seed);
        ( "workloads",
          J.Obj
            (List.map
               (fun r ->
                 ( r.workload,
                   J.Obj
                     [
                       ("attempted", J.Int r.attempted);
                       ("failed", J.Int r.failed);
                       ("problems", J.List (List.map (fun s -> J.String s) r.problems));
                       ("metrics", J.Obj (List.filter_map (metric r) (end_to_end @ per_layer)));
                     ] ))
               reports) );
      ]
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc (J.to_string doc ^ "\n"))

(* The smoke check: every metric BENCHMARK.json (in the current
   directory) lists is present and finite for every workload, and
   nothing failed. *)
let smoke_check reports =
  let module J = Ormp_util.Json in
  match J.of_string (read_file "BENCHMARK.json") with
  | Error e -> [ "BENCHMARK.json: " ^ e ]
  | exception Sys_error e -> [ "BENCHMARK.json: " ^ e ]
  | Ok doc ->
    let names key =
      Option.value ~default:[] (Option.bind (J.member key doc) J.to_list)
      |> List.filter_map (fun m -> Option.bind (J.member "name" m) J.to_str)
    in
    let known = List.map fst (end_to_end @ per_layer) in
    List.concat_map
      (fun r ->
        List.filter_map
          (fun name ->
            if List.mem name known && Float.is_finite (value r name) then None
            else Some (Printf.sprintf "%s: %s unknown or not finite" r.workload name))
          (names "end_to_end" @ names "per_layer")
        @ if r.failed > 0 then [ r.workload ^ ": failed runs" ] else [])
      reports

let () =
  let seed = ref 1 and seconds = ref 20.0 and trace = ref None and json = ref None in
  let smoke = ref false and chosen = ref [] in
  let add w = chosen := w :: !chosen in
  let specs =
    [
      ("--workload", Arg.String add, "NAME  run this workload (repeatable; default all four)");
      ("--seed", Arg.Set_int seed, "N  workload seed (Config.seed; default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measuring time per pass (default 20)");
      ( "--trace",
        Arg.Int (fun t -> trace := Some t),
        "0|1  only the untraced pass (end-to-end metrics) or only the traced pass (per-layer)" );
      ("--json", Arg.String (fun p -> json := Some p), "PATH  also write the full report here");
      ("--smoke", Arg.Set smoke, " test scale, two rounds per workload, checked against BENCHMARK.json");
    ]
  in
  let usage = "e2e.exe [options] [WORKLOAD...]; workloads: " ^ String.concat " " workloads in
  Arg.parse specs add usage;
  let chosen = if !chosen = [] then workloads else List.rev !chosen in
  List.iter
    (fun w ->
      if not (List.mem w workloads) then begin
        Printf.eprintf "unknown workload %S\n%s\n" w usage;
        exit 2
      end)
    chosen;
  let passes, names =
    match !trace with
    | Some 0 -> ([ `Untraced ], end_to_end)
    | Some 1 -> ([ `Traced ], per_layer)
    | None -> ([ `Untraced; `Traced ], end_to_end @ per_layer)
    | Some _ ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
  in
  let budget =
    if !smoke then { seconds = 0.0; min_rounds = 2; max_rounds = 2; warmup = 1 }
    else { seconds = !seconds; min_rounds = 3; max_rounds = max_int; warmup = 3 }
  in
  let config = { Config.default with seed = !seed } in
  Printf.printf "e2e: seed %d, %.0f s per pass, %s scale\n%!" !seed budget.seconds
    (if !smoke then "test" else "bench");
  (try Unix.mkdir ".e2e-tmp" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir tmp_root 0o755;
  let reports =
    Fun.protect
      ~finally:(fun () ->
        rm_rf tmp_root;
        try Unix.rmdir ".e2e-tmp" with Unix.Unix_error _ -> ())
      (fun () ->
        List.map
          (fun w ->
            (* Serve sessions take a warm-up of one. *)
            let budget = if w = "serve-churn" then { budget with warmup = 1 } else budget in
            let r = run_workload ~bench:(not !smoke) ~config ~budget ~passes ~setups:3 w in
            print_report r names;
            r)
          chosen)
  in
  Option.iter (fun path -> write_json ~path ~seed:!seed reports) !json;
  let smoke_problems = if !smoke then smoke_check reports else [] in
  List.iter (Printf.printf "smoke: %s\n") smoke_problems;
  print_endline (final_line reports names);
  if smoke_problems <> [] || List.exists (fun r -> r.failed > 0) reports then exit 1
