module S = Ormp_util.Sexp
module W = Ormp_whomp.Whomp
module Faults = Ormp_workloads.Faults
module Registry = Ormp_workloads.Registry

let ( // ) = Filename.concat

type fault = Crash | Hang

let fault_name = function Crash -> "crash" | Hang -> "hang"

type success = { sc_collected : int; sc_wild : int; sc_omsg : int; sc_elapsed : float }

type entry = {
  en_workload : string;
  en_fault : fault option;
  en_outcome : success Supervise.outcome;
}

type report = {
  rp_entries : entry list;
  rp_completed : int;
  rp_failed : int;
  rp_timed_out : int;
  rp_elapsed : float;
}

(* Check the stop flag once every 1024 events: cheap against a per-event
   profile cost, frequent against any workload that is still making
   progress (a hang inside the probe stream keeps emitting events, so the
   guard is guaranteed to run). *)
let guarded_sink should_stop inner =
  let n = ref 0 in
  fun ev ->
    incr n;
    if !n land 1023 = 0 && should_stop () then raise Supervise.Cancelled;
    inner ev

let profile_task ?config ?jobs program ~should_stop =
  (* A cancellation (or any fault) raised by the guarded sink unwinds
     through [Pipeline.run], which joins the pool before it propagates to
     Supervise. *)
  let pipe, result = Pipeline.run ?config ?jobs ~wrap:(guarded_sink should_stop) program in
  Pipeline.whomp_profile pipe ~elapsed:result.Ormp_vm.Runner.elapsed

let run ?(bench = false) ?timeout_s ?(retries = 1) ?backoff_s ?(faults = []) ?config ?jobs
    ?out_dir () =
  let t0 = Ormp_util.Clock.now_s () in
  (match out_dir with
  | Some d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755
  | None -> ());
  let entries =
    List.map
      (fun (e : Registry.entry) ->
        let fault = List.assoc_opt e.Registry.name faults in
        let program =
          let p = Registry.program ~bench e in
          match fault with
          | None -> p
          | Some Crash -> Faults.crashing p
          | Some Hang -> Faults.hanging p
        in
        let outcome =
          Supervise.run ?timeout_s ~retries ?backoff_s (fun ~should_stop ->
              Ormp_telemetry.Telemetry.span ~name:("suite:" ^ e.Registry.name) @@ fun () ->
              let p = profile_task ?config ?jobs program ~should_stop in
              (match out_dir with
              | Some d ->
                Ormp_persist.Whomp_io.save (d // (e.Registry.name ^ ".whomp")) p
              | None -> ());
              {
                sc_collected = p.W.collected;
                sc_wild = p.W.wild;
                sc_omsg = W.omsg_size p;
                sc_elapsed = p.W.elapsed;
              })
        in
        { en_workload = e.Registry.name; en_fault = fault; en_outcome = outcome })
      Registry.spec
  in
  let count f = List.length (List.filter f entries) in
  {
    rp_entries = entries;
    rp_completed = count (fun e -> match e.en_outcome with Supervise.Completed _ -> true | _ -> false);
    rp_failed = count (fun e -> match e.en_outcome with Supervise.Failed _ -> true | _ -> false);
    rp_timed_out =
      count (fun e -> match e.en_outcome with Supervise.Timed_out _ -> true | _ -> false);
    rp_elapsed = Ormp_util.Clock.now_s () -. t0;
  }

let entry_to_sexp (e : entry) =
  let base =
    [
      S.field "workload" [ S.atom e.en_workload ];
      S.field "fault"
        [ S.atom (match e.en_fault with None -> "-" | Some f -> fault_name f) ];
    ]
  in
  S.field "entry"
    (base
    @
    match e.en_outcome with
    | Supervise.Completed s ->
      [
        S.field "outcome" [ S.atom "completed" ];
        S.field "collected" [ S.int s.sc_collected ];
        S.field "wild" [ S.int s.sc_wild ];
        S.field "omsg" [ S.int s.sc_omsg ];
      ]
    | Supervise.Failed f ->
      [
        S.field "outcome" [ S.atom "failed" ];
        S.field "attempts" [ S.int f.Supervise.attempts ];
        S.field "error" [ S.atom f.Supervise.error ];
      ]
    | Supervise.Timed_out t ->
      [
        S.field "outcome" [ S.atom "timed-out" ];
        S.field "attempts" [ S.int t.attempts ];
      ])

let report_to_sexp (r : report) =
  S.field "ormp-suite-report"
    ([
       S.field "completed" [ S.int r.rp_completed ];
       S.field "failed" [ S.int r.rp_failed ];
       S.field "timed-out" [ S.int r.rp_timed_out ];
     ]
    @ List.map entry_to_sexp r.rp_entries)

let save_report path r = S.save path (report_to_sexp r)
