module S = Ormp_util.Sexp
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

let rec mkdirs path =
  if path = "" || path = "." || Sys.file_exists path then ()
  else begin
    mkdirs (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

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

type ctx = {
  dir : string;
  io : Io.t option;
  options : options;
  hb : hb option;
  pipe : Pipeline.t;
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
    Storage.save_sealed (ctx.dir // file) (Ormp_persist.Grammar_io.to_sexp (dim, g));
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
  (match ctx.journal with Some j -> Journal.flush j | None -> ());
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
      journal_bytes = (match ctx.journal with Some j -> Journal.bytes j | None -> 0);
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

let journal_append ctx ev =
  match ctx.journal with
  | None -> ()
  | Some j -> (
    match Journal.append j ev with
    | () -> ctx.jcrc <- Journal.crc j
    | exception (Io.Torn_write msg | Io.No_space msg) ->
      (* Without a sound journal, a snapshot taken now could never be
         replayed past — so checkpointing is disabled together with
         journaling, and the run continues purely in memory. *)
      Journal.close j;
      ctx.journal <- None;
      ctx.checkpointing <- false;
      degrade ctx "journal-off" msg)

(* --- report ------------------------------------------------------------ *)

let outcome_to_sexp (o : outcome) =
  S.field "ormp-session-report"
    ([
       S.field "workload" [ S.atom o.oc_workload ];
       S.field "position" [ S.int o.oc_position ];
       S.field "collected" [ S.int o.oc_collected ];
       S.field "wild" [ S.int o.oc_wild ];
       S.field "checkpoints" [ S.int o.oc_checkpoints ];
       S.field "resumed-from"
         [ S.int (match o.oc_resumed_from with None -> -1 | Some p -> p) ];
       S.field "replayed" [ S.int o.oc_replayed ];
       S.field "rotations" [ S.int o.oc_rotations ];
     ]
    @ List.map Snapshot.epoch_to_sexp o.oc_epochs
    @ List.map Snapshot.degradation_to_sexp o.oc_degradations)

(* --- run / resume core ------------------------------------------------- *)

type restore = {
  rs_snapshot : Snapshot.t;
  rs_tail : Event.t array;  (* journal events [snapshot position, end) *)
  rs_count : int;  (* total surviving journal events *)
  rs_crc : int;  (* CRC over all of them *)
}

let execute ?io ?(heartbeat_every = 0) ?(jobs = 1) ~dir ~workload
    ~(config : Ormp_vm.Config.t) ~(options : options) ~restore () =
  let* program = find_workload workload in
  (* Sites are named through the table the run produces; the reference is
     filled once the workload finishes. *)
  let table = ref None in
  Pipeline.with_pool ~jobs @@ fun pool ->
  let snap = Option.map (fun r -> r.rs_snapshot) restore in
  let ctx =
    {
      dir;
      io;
      options;
      hb =
        (if heartbeat_every > 0 then begin
           let now = Ormp_util.Clock.now_ns () in
           Some
             {
               hb_every = heartbeat_every;
               hb_path = dir // heartbeat_file;
               hb_start_ns = now;
               hb_last_ns = now;
               hb_last_pos = 0;
             }
         end
         else None);
      pipe =
        Pipeline.create ?pool ~site_name:(Pipeline.table_site_name table) ?restore:snap
          ?leap_budget:options.leap_budget ~max_streams:options.max_streams ();
      epoch_start =
        (match snap with
        | Some s -> (
          match List.rev s.Snapshot.epochs with e :: _ -> e.Snapshot.ep_to | [] -> 0)
        | None -> 0);
      rotations = (match snap with Some s -> s.Snapshot.rotations | None -> 0);
      epochs = (match snap with Some s -> s.Snapshot.epochs | None -> []);
      degradations = (match snap with Some s -> s.Snapshot.degradations | None -> []);
      checkpoints_written = 0;
      last_snapshot_bytes = 0;
      last_checkpoint_pos = 0;
      journal = None;
      jcrc = (match snap with Some s -> s.Snapshot.journal_crc | None -> 0);
      checkpointing = options.checkpoint_every > 0;
    }
  in
  (* Phase A: replay the journal tail the dead run wrote after its last
     snapshot. Triggers re-fire (rotations must be re-applied; snapshot
     rewrites are idempotent), but nothing is re-journaled — the CRC is
     re-derived instead so rewritten snapshots carry the right value. *)
  let replay_tail = match restore with Some r -> r.rs_tail | None -> [||] in
  let replayed = Array.length replay_tail in
  if replayed > 0 then
    (Tm.span ~name:"session.replay" @@ fun () ->
     Array.iter
       (fun ev ->
         ctx.jcrc <- Ormp_util.Crc32.update ctx.jcrc (Tf.event_line ev);
         Pipeline.apply ctx.pipe ev;
         triggers ctx)
       replay_tail);
  ctx.journal <-
    Some
      (match restore with
      | None -> Journal.create ?io (dir // journal_file)
      | Some r -> Journal.create ?io ~resume:(r.rs_count, r.rs_crc) (dir // journal_file));
  (* Phase B: (re-)execute the workload. The first [skip] events were already
     incorporated via snapshot + replay; they are regenerated (the VM is
     deterministic), CRC-checked against the journal, and dropped. *)
  let skip = match restore with None -> 0 | Some r -> r.rs_count in
  let expect_crc = match restore with None -> 0 | Some r -> r.rs_crc in
  let gen = ref 0 and regen_crc = ref 0 in
  let sink ev =
    if !gen < skip then begin
      regen_crc := Ormp_util.Crc32.update !regen_crc (Tf.event_line ev);
      incr gen;
      if !gen = skip && !regen_crc <> expect_crc then
        raise
          (Resume_diverged
             (Printf.sprintf "re-executed events [0,%d) differ from the journal (crc %d, journal %d)"
                skip !regen_crc expect_crc))
    end
    else begin
      incr gen;
      journal_append ctx ev;
      Pipeline.apply ctx.pipe ev;
      triggers ctx
    end
  in
  let close_journal () =
    match ctx.journal with
    | None -> ()
    | Some j ->
      (try Journal.flush j with Sys_error _ -> ());
      Journal.close j;
      ctx.journal <- None
  in
  match Ormp_vm.Runner.run ~config program sink with
  | exception Resume_diverged msg ->
    close_journal ();
    Error msg
  | result ->
    (* The journal is durable before finalization, so a compressor failure
       surfacing from the final quiesce leaves the session resumable. *)
    close_journal ();
    table := Some result.Ormp_vm.Runner.table;
    (Tm.span ~name:"session.finalize" @@ fun () ->
     Pipeline.finalize ctx.pipe ~dir ~elapsed:result.Ormp_vm.Runner.elapsed);
    let outcome =
      {
        oc_dir = dir;
        oc_workload = workload;
        oc_position = position ctx;
        oc_collected = Pipeline.collected ctx.pipe;
        oc_wild = Pipeline.wild ctx.pipe;
        oc_checkpoints = ctx.checkpoints_written;
        oc_resumed_from = Option.map (fun s -> s.Snapshot.position) snap;
        oc_replayed = replayed;
        oc_rotations = ctx.rotations;
        oc_epochs = ctx.epochs;
        oc_degradations = ctx.degradations;
        oc_elapsed = result.Ormp_vm.Runner.elapsed;
      }
    in
    Storage.write_atomic ~path:(dir // report_file) (S.to_string (outcome_to_sexp outcome) ^ "\n");
    Ok outcome
  | exception exn ->
    (* Leave the journal durable for a later [resume], then let the failure
       travel with its original backtrace ([Io.Killed] reaches the CLI);
       [with_pool] joins the workers on the way out. *)
    let bt = Printexc.get_raw_backtrace () in
    close_journal ();
    Printexc.raise_with_backtrace exn bt

(* --- public entry points ----------------------------------------------- *)

let run ?io ?heartbeat_every ?jobs ?(config = Ormp_vm.Config.default)
    ?(options = default_options) ~dir ~workload () =
  let* _ = find_workload workload in
  mkdirs dir;
  if Sys.file_exists (dir // manifest_file) then
    Error (Printf.sprintf "session already exists in %s (use resume)" dir)
  else begin
    Storage.write_atomic ~path:(dir // manifest_file)
      (S.to_string (manifest_to_sexp ~workload ~config ~options) ^ "\n");
    execute ?io ?heartbeat_every ?jobs ~dir ~workload ~config ~options ~restore:None ()
  end

let newest_snapshot dir =
  let ordinals =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           match String.length f > 9 && String.sub f 0 9 = "snapshot-" with
           | true -> int_of_string_opt (String.sub f 9 (String.length f - 9))
           | false -> None)
    |> List.sort (fun a b -> compare b a)
  in
  let rec first_valid = function
    | [] -> None
    | k :: rest -> (
      match Snapshot.load (dir // snapshot_file k) with
      | Ok snap -> Some snap
      | Error _ -> first_valid rest)
  in
  first_valid ordinals

let resume ?io ?heartbeat_every ?jobs ~dir () =
  let* manifest_sexp =
    match S.load (dir // manifest_file) with
    | Ok s -> Ok s
    | Error e -> Error (Printf.sprintf "no session in %s: %s" dir e)
  in
  let* workload, config, options = manifest_of_sexp manifest_sexp in
  let restore =
    match newest_snapshot dir with
    | None -> None
    | Some snap -> (
      match Journal.recover ~at:snap.Snapshot.position (dir // journal_file) with
      | Error _ -> None
      | Ok r ->
        if r.Journal.crc_at <> snap.Snapshot.journal_crc then None
        else
          Some
            {
              rs_snapshot = snap;
              rs_tail =
                Array.sub r.Journal.events snap.Snapshot.position
                  (Array.length r.Journal.events - snap.Snapshot.position);
              rs_count = Array.length r.Journal.events;
              rs_crc = r.Journal.r_crc;
            })
  in
  (* With no usable snapshot (or a journal that contradicts it), fall back
     to a from-scratch run over the same manifest — correct, just slower. *)
  execute ?io ?heartbeat_every ?jobs ~dir ~workload ~config ~options ~restore ()

let status ~dir =
  let* manifest_sexp =
    match S.load (dir // manifest_file) with
    | Ok s -> Ok s
    | Error e -> Error (Printf.sprintf "no session in %s: %s" dir e)
  in
  let* workload, _, _ = manifest_of_sexp manifest_sexp in
  let st_snapshot =
    match newest_snapshot dir with
    | None -> None
    | Some s -> Some (s.Snapshot.checkpoint, s.Snapshot.position)
  in
  let st_journal =
    match Journal.recover (dir // journal_file) with
    | Ok r -> Some (Array.length r.Journal.events)
    | Error _ -> None
  in
  Ok
    {
      st_workload = workload;
      st_snapshot;
      st_journal;
      st_complete = Sys.file_exists (dir // report_file);
    }
