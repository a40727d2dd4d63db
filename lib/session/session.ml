module S = Ormp_util.Sexp
module W = Ormp_util.Sexp.Writer
module Seq_c = Ormp_sequitur.Sequitur
module A = Ormp_memsim.Allocator
module Io = Ormp_workloads.Faults.Io
module Tf = Ormp_trace.Trace_file
module Event = Ormp_trace.Event
module Tm = Ormp_telemetry.Telemetry

let m_snapshot_saves = Tm.Metrics.counter "snapshot.saves"
let m_snapshot_bytes = Tm.Metrics.counter "snapshot.bytes_written"

let ( let* ) = Result.bind
let ( // ) = Filename.concat

exception Resume_diverged of string
(* Raised when deterministic re-execution regenerates a different event
   stream than the journal recorded: the workload, config, or code
   changed between the original run and the resume. *)

(* --- options and outcome ---------------------------------------------- *)

type options = {
  checkpoint_every : int;
  watch_every : int;
  grammar_budget : int;
  max_streams : int;
  leap_budget : int option;
  keep : int;
}

let default_options =
  {
    checkpoint_every = 0;
    watch_every = 0;
    grammar_budget = 0;
    max_streams = 0;
    leap_budget = None;
    keep = 2;
  }

type outcome = {
  oc_dir : string;
  oc_workload : string;
  oc_position : int;
  oc_collected : int;
  oc_wild : int;
  oc_checkpoints : int;
  oc_resumed_from : int option;
  oc_replayed : int;
  oc_rotations : int;
  oc_epochs : Snapshot.epoch list;
  oc_degradations : Snapshot.degradation list;
  oc_elapsed : float;
}

type status_info = {
  st_workload : string;
  st_snapshot : (int * int) option;
  st_journal : int option;
  st_complete : bool;
}

(* --- file layout ------------------------------------------------------- *)

let manifest_file = "manifest"
let journal_file = "journal.trace"
let report_file = "report"
let heartbeat_file = "heartbeat"
let snapshot_file k = Printf.sprintf "snapshot-%d" k

(* --- manifest ---------------------------------------------------------- *)

let policy_to_string = function
  | A.Bump -> "bump"
  | A.First_fit -> "first-fit"
  | A.Best_fit -> "best-fit"
  | A.Segregated -> "segregated"
  | A.Randomized n -> Printf.sprintf "randomized:%d" n

let policy_of_string s =
  match s with
  | "bump" -> Ok A.Bump
  | "first-fit" -> Ok A.First_fit
  | "best-fit" -> Ok A.Best_fit
  | "segregated" -> Ok A.Segregated
  | _ -> (
    match String.index_opt s ':' with
    | Some i
      when String.sub s 0 i = "randomized" ->
      (match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some n -> Ok (A.Randomized n)
      | None -> Error ("bad policy " ^ s))
    | _ -> Error ("unknown policy " ^ s))

let manifest_to_sexp ~workload ~(config : Ormp_vm.Config.t) ~(options : options) =
  S.field "ormp-session"
    [
      S.field "version" [ S.int 1 ];
      S.field "workload" [ S.atom workload ];
      S.field "config"
        [
          S.field "policy" [ S.atom (policy_to_string config.policy) ];
          S.field "heap-base" [ S.int config.heap_base ];
          S.field "static-base" [ S.int config.static_base ];
          S.field "static-gap" [ S.int config.static_gap ];
          S.field "align" [ S.int config.align ];
          S.field "seed" [ S.int config.seed ];
        ];
      S.field "options"
        [
          S.field "checkpoint-every" [ S.int options.checkpoint_every ];
          S.field "watch-every" [ S.int options.watch_every ];
          S.field "grammar-budget" [ S.int options.grammar_budget ];
          S.field "max-streams" [ S.int options.max_streams ];
          S.field "leap-budget"
            [ S.int (match options.leap_budget with None -> -1 | Some b -> b) ];
          S.field "keep" [ S.int options.keep ];
        ];
    ]

let manifest_of_sexp t =
  let* args = S.as_list t in
  match args with
  | S.Atom "ormp-session" :: rest ->
    let body = S.List (S.Atom "_" :: rest) in
    let* v = S.int_field "version" body in
    if v <> 1 then Error (Printf.sprintf "unsupported manifest version %d" v)
    else
      let* workload = S.atom_field "workload" body in
      let* cargs = S.assoc "config" body in
      let cbody = S.List (S.Atom "_" :: cargs) in
      let* policy_s = S.atom_field "policy" cbody in
      let* policy = policy_of_string policy_s in
      let* heap_base = S.int_field "heap-base" cbody in
      let* static_base = S.int_field "static-base" cbody in
      let* static_gap = S.int_field "static-gap" cbody in
      let* align = S.int_field "align" cbody in
      let* seed = S.int_field "seed" cbody in
      let* oargs = S.assoc "options" body in
      let obody = S.List (S.Atom "_" :: oargs) in
      let* checkpoint_every = S.int_field "checkpoint-every" obody in
      let* watch_every = S.int_field "watch-every" obody in
      let* grammar_budget = S.int_field "grammar-budget" obody in
      let* max_streams = S.int_field "max-streams" obody in
      let* leap_budget = S.int_field "leap-budget" obody in
      let* keep = S.int_field "keep" obody in
      Ok
        ( workload,
          { Ormp_vm.Config.policy; heap_base; static_base; static_gap; align; seed },
          {
            checkpoint_every;
            watch_every;
            grammar_budget;
            max_streams;
            leap_budget = (if leap_budget < 0 then None else Some leap_budget);
            keep;
          } )
  | _ -> Error "not an ormp-session manifest"

(* --- workload lookup --------------------------------------------------- *)

let find_workload name =
  match Ormp_workloads.Registry.find name with
  | entry -> Ok (Ormp_workloads.Registry.program entry)
  | exception Not_found -> (
    match List.assoc_opt name Ormp_workloads.Micro.all with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "unknown workload %S" name))

(* --- the live session -------------------------------------------------- *)

(* Heartbeat sampler state. Kept out of [options] (and thus out of the
   manifest) on purpose: the sampling cadence is an observation knob of
   one process, not part of the session's identity — resume must not
   depend on it. *)
type hb = {
  hb_every : int;
  hb_path : string;
  hb_start_ns : int64;
  mutable hb_last_ns : int64;
  mutable hb_last_pos : int;
}

type t = {
  dir : string;
  workload : string;
  io : Io.t option;
  options : options;
  hb : hb option;
  pipe : Pipeline.t;
  resumed_from : int option;  (* snapshot position, if restored from one *)
  mutable replayed : int;
  mutable epoch_start : int;
  mutable rotations : int;
  mutable epochs : Snapshot.epoch list;  (* oldest first *)
  mutable degradations : Snapshot.degradation list;  (* oldest first *)
  mutable checkpoints_written : int;
  mutable last_snapshot_bytes : int;
  mutable last_checkpoint_pos : int;
  mutable journal : Journal.writer option;
  mutable jcrc : int;
      (* CRC of the journal through the pipeline's position — tracked here
         (not just in the writer) because replay re-derives it with no
         writer open *)
  mutable checkpointing : bool;
}

let position ctx = Pipeline.position ctx.pipe
let pipeline ctx = ctx.pipe
let journal_bytes ctx = match ctx.journal with Some j -> Journal.bytes j | None -> 0
let flush ctx = match ctx.journal with Some j -> Journal.flush j | None -> ()

let degrade ctx kind detail =
  ctx.degradations <-
    ctx.degradations
    @ [ { Snapshot.dg_position = position ctx; dg_kind = kind; dg_detail = detail } ]

(* Seal every live grammar into epoch files and start fresh ones. Grammar
   continuity across the seal is intentional only in the files: analysis
   concatenates epochs. The trigger fires at exact raw-event positions, so
   a resumed run re-rotates at exactly the same points (idempotently
   rewriting the same epoch files). *)
let rotate ctx =
  Tm.span ~name:"session.rotate" @@ fun () ->
  ctx.rotations <- ctx.rotations + 1;
  let seal (dim, g) =
    let file = Printf.sprintf "epoch-%d-%s" ctx.rotations dim in
    Storage.save_sealed (ctx.dir // file) Ormp_persist.Grammar_io.write (dim, g);
    {
      Snapshot.ep_index = ctx.rotations;
      ep_dim = dim;
      ep_file = file;
      ep_from = ctx.epoch_start;
      ep_to = position ctx;
      ep_symbols = Seq_c.grammar_size g;
    }
  in
  let eps = List.map seal (Pipeline.rotate ctx.pipe) in
  ctx.epochs <- ctx.epochs @ eps;
  ctx.epoch_start <- position ctx;
  degrade ctx "rotate"
    (Printf.sprintf "grammar budget exceeded; sealed epoch %d" ctx.rotations)

let take_snapshot ctx ~ordinal ~journal_crc =
  let cdc = Pipeline.cdc_state ctx.pipe in
  match Pipeline.grammars ctx.pipe with
  | [ (_, gi); (_, gg); (_, go); (_, gf); (_, rasg) ] ->
    {
      Snapshot.position = position ctx;
      checkpoint = ordinal;
      journal_crc;
      rotations = ctx.rotations;
      epochs = ctx.epochs;
      degradations = ctx.degradations;
      cdc;
      whomp = (gi, gg, go, gf);
      rasg;
      leap = Pipeline.leap_live ctx.pipe;
    }
  | _ -> assert false

let prune_snapshots ctx ~ordinal =
  if ctx.options.keep > 0 then begin
    let stale = ordinal - ctx.options.keep in
    if stale >= 1 then
      let path = ctx.dir // snapshot_file stale in
      if Sys.file_exists path then try Sys.remove path with Sys_error _ -> ()
  end

let checkpoint ctx =
  Tm.span ~name:"session.checkpoint" @@ fun () ->
  let ordinal = position ctx / ctx.options.checkpoint_every in
  (* The journal must be durable through [position] before the snapshot
     that claims to cover it exists — the write-ahead discipline. *)
  flush ctx;
  let path = ctx.dir // snapshot_file ordinal in
  match Snapshot.save ?io:ctx.io path (take_snapshot ctx ~ordinal ~journal_crc:ctx.jcrc) with
  | () ->
    ctx.checkpoints_written <- ctx.checkpoints_written + 1;
    ctx.last_checkpoint_pos <- position ctx;
    (match (Unix.stat path).Unix.st_size with
    | size ->
      ctx.last_snapshot_bytes <- size;
      if Tm.on () then begin
        Tm.Metrics.incr m_snapshot_saves;
        Tm.Metrics.add m_snapshot_bytes size
      end
    | exception Unix.Unix_error _ -> ());
    prune_snapshots ctx ~ordinal;
    (match ctx.io with Some f -> Io.checkpoint_written f | None -> ())
  | exception (Io.Torn_write msg | Io.No_space msg) ->
    (* The atomic-write discipline already discarded the partial temp file;
       the previous snapshot is intact, so the run can go on — only the
       recovery point is older than intended. *)
    degrade ctx "checkpoint-failed" msg

(* Write one heartbeat sample: rates since the previous sample plus the
   live state sizes. Failures to append are swallowed — the heartbeat is
   observation only and must never degrade the session itself. *)
let heartbeat ctx h =
  let now = Ormp_util.Clock.now_ns () in
  let dt_s = Int64.to_float (Int64.sub now h.hb_last_ns) /. 1e9 in
  let events = position ctx - h.hb_last_pos in
  let sample =
    {
      Ormp_telemetry.Heartbeat.wall_s = Int64.to_float (Int64.sub now h.hb_start_ns) /. 1e9;
      position = position ctx;
      events_per_sec = (if dt_s > 0.0 then float_of_int events /. dt_s else 0.0);
      live_objects = Pipeline.live_objects ctx.pipe;
      grammar_symbols = Pipeline.grammar_symbols ctx.pipe;
      leap_streams = Pipeline.leap_streams ctx.pipe;
      journal_bytes = journal_bytes ctx;
      snapshot_bytes = ctx.last_snapshot_bytes;
      last_checkpoint = ctx.last_checkpoint_pos;
      degraded =
        List.sort_uniq compare
          (List.map (fun d -> d.Snapshot.dg_kind) ctx.degradations);
    }
  in
  h.hb_last_ns <- now;
  h.hb_last_pos <- position ctx;
  try Ormp_telemetry.Heartbeat.append h.hb_path sample with Sys_error _ -> ()

(* Post-application triggers, at exact raw-event positions so that replay
   and re-execution hit them identically. (The heartbeat is the exception:
   it observes wall-clock rates, so replay re-emits samples with replay
   timing — the file is append-only and watchers read the latest line.) *)
let triggers ctx =
  let o = ctx.options in
  let pos = position ctx in
  let fire_watch = o.watch_every > 0 && pos mod o.watch_every = 0 in
  let fire_ckpt = ctx.checkpointing && o.checkpoint_every > 0 && pos mod o.checkpoint_every = 0 in
  let fire_hb = match ctx.hb with Some h -> pos mod h.hb_every = 0 | None -> false in
  if fire_watch || fire_ckpt || fire_hb then begin
    (* Quiesce the whole pipeline before any trigger runs: the watchdog
       measures the live grammars, the checkpoint serializes them, and the
       heartbeat sizes them — all of which require the staged batch to be
       translated and the pool to have consumed everything dispatched so
       far, so the observed state is exactly the serial state here. *)
    Pipeline.quiesce ctx.pipe;
    Option.iter raise (Pipeline.failure ctx.pipe);
    if fire_watch && o.grammar_budget > 0 && Pipeline.grammar_symbols ctx.pipe > o.grammar_budget
    then rotate ctx;
    if fire_ckpt then checkpoint ctx;
    match ctx.hb with
    | Some h when fire_hb -> heartbeat ctx h
    | _ -> ()
  end

(* Without a sound journal, a snapshot taken now could never be replayed
   past — so checkpointing is disabled together with journaling, and the
   run continues purely in memory. *)
let journal_off ctx j msg =
  ctx.jcrc <- Journal.crc j;
  Journal.close j;
  ctx.journal <- None;
  ctx.checkpointing <- false;
  degrade ctx "journal-off" msg

let journal_append ctx ev =
  match ctx.journal with
  | None -> ()
  | Some j -> (
    match Journal.append j ev with
    | () -> ctx.jcrc <- Journal.crc j
    | exception (Io.Torn_write msg | Io.No_space msg) -> journal_off ctx j msg)

let append ctx ev =
  journal_append ctx ev;
  Pipeline.apply ctx.pipe ev;
  triggers ctx

(* The first multiple of [every] after [pos]; never, for 0. *)
let due pos every = if every > 0 then ((pos / every) + 1) * every else max_int

(* The first position after [pos] at which some trigger is due. *)
let next_trigger ctx pos =
  let o = ctx.options in
  min
    (min (due pos o.watch_every) (due pos (if ctx.checkpointing then o.checkpoint_every else 0)))
    (due pos (match ctx.hb with Some h -> h.hb_every | None -> 0))

(* Journal then apply [off, off + len) of a chunk, which no trigger falls
   inside. If the journal fails at a line, the events before it are
   applied first, so the degradation lands at the position per-event
   [append] records. *)
let append_run ctx chunk ~off ~len =
  match ctx.journal with
  | None -> Pipeline.apply_chunk ctx.pipe chunk ~off ~len
  | Some j -> (
    let written = ref 0 in
    match
      match ctx.io with
      | None ->
        Journal.append_chunk j chunk ~off ~len;
        written := len
      | Some _ ->
        (* Line by line under a fault plan: a fault names the event it hit. *)
        while !written < len do
          Journal.append_chunk j chunk ~off:(off + !written) ~len:1;
          incr written
        done
    with
    | () ->
      ctx.jcrc <- Journal.crc j;
      Pipeline.apply_chunk ctx.pipe chunk ~off ~len
    | exception (Io.Torn_write msg | Io.No_space msg) ->
      Pipeline.apply_chunk ctx.pipe chunk ~off ~len:!written;
      journal_off ctx j msg;
      Pipeline.apply_chunk ctx.pipe chunk ~off:(off + !written) ~len:(len - !written))

(* Write ahead per run: the chunk is cut wherever a trigger is due, so
   each trigger fires at exactly the position, and on exactly the state,
   it would under one [append] per access. *)
let append_chunk ctx chunk ~off ~len =
  if off < 0 || len < 0 || off > chunk.Ormp_trace.Batch.len - len then
    invalid_arg "Session.append_chunk";
  let stop = off + len and i = ref off in
  while !i < stop do
    let pos = position ctx in
    let n = min (stop - !i) (next_trigger ctx pos - pos) in
    append_run ctx chunk ~off:!i ~len:n;
    i := !i + n;
    triggers ctx
  done

let close ctx =
  match ctx.journal with
  | None -> ()
  | Some j ->
    (try Journal.flush j with Sys_error _ -> ());
    Journal.close j;
    ctx.journal <- None

(* --- report ------------------------------------------------------------ *)

let write_outcome w (o : outcome) =
  W.nested w "ormp-session-report";
  W.flat w "workload";
  W.atom w o.oc_workload;
  W.close w;
  W.int_field w "position" o.oc_position;
  W.int_field w "collected" o.oc_collected;
  W.int_field w "wild" o.oc_wild;
  W.int_field w "checkpoints" o.oc_checkpoints;
  W.int_field w "resumed-from" (match o.oc_resumed_from with None -> -1 | Some p -> p);
  W.int_field w "replayed" o.oc_replayed;
  W.int_field w "rotations" o.oc_rotations;
  List.iter (Snapshot.write_epoch w) o.oc_epochs;
  List.iter (Snapshot.write_degradation w) o.oc_degradations;
  W.close w

let finish ctx ~elapsed =
  (* The journal is durable before finalization, so a compressor failure
     surfacing from the final quiesce leaves the session resumable. *)
  close ctx;
  (Tm.span ~name:"session.finalize" @@ fun () ->
   Pipeline.finalize ctx.pipe ~dir:ctx.dir ~elapsed);
  let outcome =
    {
      oc_dir = ctx.dir;
      oc_workload = ctx.workload;
      oc_position = position ctx;
      oc_collected = Pipeline.collected ctx.pipe;
      oc_wild = Pipeline.wild ctx.pipe;
      oc_checkpoints = ctx.checkpoints_written;
      oc_resumed_from = ctx.resumed_from;
      oc_replayed = ctx.replayed;
      oc_rotations = ctx.rotations;
      oc_epochs = ctx.epochs;
      oc_degradations = ctx.degradations;
      oc_elapsed = elapsed;
    }
  in
  Storage.write_atomic ~path:(ctx.dir // report_file)
    (W.render write_outcome outcome ^ "\n");
  outcome

(* --- start / restore --------------------------------------------------- *)

let create ?io ?(heartbeat_every = 0) ?pool ?site_name ?snap ~options ~dir ~workload () =
  let epochs, degradations, rotations, jcrc =
    match snap with
    | Some s -> Snapshot.(s.epochs, s.degradations, s.rotations, s.journal_crc)
    | None -> ([], [], 0, 0)
  in
  let now = Ormp_util.Clock.now_ns () in
  {
    dir;
    workload;
    io;
    options;
    hb =
      (if heartbeat_every <= 0 then None
       else
         Some
           {
             hb_every = heartbeat_every;
             hb_path = dir // heartbeat_file;
             hb_start_ns = now;
             hb_last_ns = now;
             hb_last_pos = 0;
           });
    pipe =
      Pipeline.create ?pool ?site_name ?restore:snap ?leap_budget:options.leap_budget
        ~max_streams:options.max_streams ();
    resumed_from = Option.map (fun s -> s.Snapshot.position) snap;
    replayed = 0;
    epoch_start = (match List.rev epochs with e :: _ -> e.Snapshot.ep_to | [] -> 0);
    rotations;
    epochs;
    degradations;
    checkpoints_written = 0;
    last_snapshot_bytes = 0;
    last_checkpoint_pos = 0;
    journal = None;
    jcrc;
    checkpointing = options.checkpoint_every > 0;
  }

let start ?io ?heartbeat_every ?pool ?site_name ~options ~dir ~workload () =
  let ctx = create ?io ?heartbeat_every ?pool ?site_name ~options ~dir ~workload () in
  ctx.journal <- Some (Journal.create ?io (dir // journal_file));
  ctx

(* The surviving journal, and the newest snapshot whose seal holds and
   whose journal CRC matches the journal's prefix ([None]: start from the
   empty state at position 0). *)
let recover ~dir =
  let path = dir // journal_file in
  let rec newest = function
    | [] -> Result.map (fun r -> (None, r)) (Journal.recover path)
    | k :: older -> (
      match Snapshot.load (dir // snapshot_file k) with
      | Error _ -> newest older
      | Ok snap -> (
        match Journal.recover ~at:snap.Snapshot.position path with
        | Ok r when r.Journal.crc_at = snap.Snapshot.journal_crc -> Ok (Some snap, r)
        | Ok _ | Error _ -> newest older))
  in
  (try Sys.readdir dir with Sys_error _ -> [||])
  |> Array.to_list
  |> List.filter_map (fun f ->
         if String.starts_with ~prefix:"snapshot-" f then
           int_of_string_opt (String.sub f 9 (String.length f - 9))
         else None)
  |> List.sort (fun a b -> compare b a)
  |> newest

(* Triggers re-fire during the replay (rotations must be re-applied;
   snapshot rewrites are idempotent), but nothing is re-journaled: the
   CRC is re-derived instead, so rewritten snapshots carry the right
   value. *)
let restore ?io ?heartbeat_every ?pool ?site_name ~options ~dir ~workload () =
  let* snap, r = recover ~dir in
  let ctx = create ?io ?heartbeat_every ?pool ?site_name ?snap ~options ~dir ~workload () in
  let events = r.Journal.events in
  let from = position ctx and count = Array.length events in
  let scratch = Tf.buffer () in
  let replay () =
    for i = from to count - 1 do
      ctx.jcrc <- Journal.crc_event scratch ctx.jcrc events.(i);
      Pipeline.apply ctx.pipe events.(i);
      triggers ctx
    done;
    Pipeline.quiesce ctx.pipe;
    Option.iter raise (Pipeline.failure ctx.pipe)
  in
  match Tm.span ~name:"session.replay" replay with
  | () ->
    ctx.replayed <- count - from;
    ctx.journal <- Some (Journal.create ?io ~resume:r.Journal.r_crc (dir // journal_file));
    Ok ctx
  | exception (Io.Killed _ as killed) -> raise killed
  | exception e ->
    Error
      (Printf.sprintf "journal replay failed at position %d: %s" (position ctx)
         (Printexc.to_string e))

(* --- the VM driver ----------------------------------------------------- *)

(* Run [workload] under the VM into a fresh session, or with [resume] the
   restored one (or a fresh one when nothing is recoverable). The events
   the session already holds are regenerated (the VM is deterministic),
   CRC-checked against the journal, and dropped. *)
let drive ?io ?heartbeat_every ?(jobs = 1) ~dir ~workload ~config ~options ~resume () =
  let* program = find_workload workload in
  (* Sites are named through the table the run produces; the reference is
     filled once the workload finishes. *)
  let table = ref None in
  Pipeline.with_pool ~jobs @@ fun pool ->
  let site_name = Pipeline.table_site_name table in
  let fresh () = start ?io ?heartbeat_every ?pool ~site_name ~options ~dir ~workload () in
  let ctx =
    if not resume then fresh ()
    else
      match restore ?io ?heartbeat_every ?pool ~site_name ~options ~dir ~workload () with
      | Ok ctx -> ctx
      | Error _ -> fresh ()
  in
  let skip = position ctx and expect_crc = ctx.jcrc in
  let gen = ref 0 and regen_crc = ref 0 and scratch = Tf.buffer () in
  let sink ev =
    incr gen;
    if !gen > skip then append ctx ev
    else begin
      regen_crc := Journal.crc_event scratch !regen_crc ev;
      if !gen = skip && !regen_crc <> expect_crc then
        raise
          (Resume_diverged
             (Printf.sprintf "re-executed events [0,%d) differ from the journal (crc %d, journal %d)"
                skip !regen_crc expect_crc))
    end
  in
  match Ormp_vm.Runner.run ~config program sink with
  | exception Resume_diverged msg ->
    close ctx;
    Error msg
  | result ->
    table := Some result.Ormp_vm.Runner.table;
    Ok (finish ctx ~elapsed:result.Ormp_vm.Runner.elapsed)
  | exception exn ->
    (* Leave the journal durable for a later [resume], then let the failure
       travel with its original backtrace ([Io.Killed] reaches the CLI);
       [with_pool] joins the workers on the way out. *)
    let bt = Printexc.get_raw_backtrace () in
    close ctx;
    Printexc.raise_with_backtrace exn bt

(* --- public entry points ----------------------------------------------- *)

let run ?io ?heartbeat_every ?jobs ?(config = Ormp_vm.Config.default)
    ?(options = default_options) ~dir ~workload () =
  let* _ = find_workload workload in
  Storage.mkdirs dir;
  if Sys.file_exists (dir // manifest_file) then
    Error (Printf.sprintf "session already exists in %s (use resume)" dir)
  else begin
    Storage.write_atomic ~path:(dir // manifest_file)
      (S.to_string (manifest_to_sexp ~workload ~config ~options) ^ "\n");
    drive ?io ?heartbeat_every ?jobs ~dir ~workload ~config ~options ~resume:false ()
  end

let load_manifest dir =
  match S.load (dir // manifest_file) with
  | Ok s -> manifest_of_sexp s
  | Error e -> Error (Printf.sprintf "no session in %s: %s" dir e)

let resume ?io ?heartbeat_every ?jobs ~dir () =
  let* workload, config, options = load_manifest dir in
  drive ?io ?heartbeat_every ?jobs ~dir ~workload ~config ~options ~resume:true ()

let status ~dir =
  let* workload, _, _ = load_manifest dir in
  let snap, journal =
    match recover ~dir with
    | Ok (snap, r) -> (snap, Some (Array.length r.Journal.events))
    | Error _ -> (None, None)
  in
  Ok
    {
      st_workload = workload;
      st_snapshot = Option.map (fun s -> (s.Snapshot.checkpoint, s.Snapshot.position)) snap;
      st_journal = journal;
      st_complete = Sys.file_exists (dir // report_file);
    }
