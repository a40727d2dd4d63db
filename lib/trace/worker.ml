module Tm = Ormp_telemetry.Telemetry

(* Functorized over the SCHED seam (Atomics_intf): production runs over
   real domains and stdlib atomics; the model checker instantiates [Make]
   with a traced scheduler in which every atomic operation, spawn, join
   and backoff is an exhaustively explored scheduling point. *)

module type S = sig
  module Ring : Spsc.S

  type 'a t

  val spawn : ?capacity:int -> name:string -> f:('a -> unit) -> unit -> 'a t
  val push : 'a t -> 'a -> unit
  val drain : 'a t -> unit
  val stop : 'a t -> unit
  val pending : 'a t -> int
  val occupancy : 'a t -> float

  module Private : sig
    type 'a shared

    val ring : 'a shared -> 'a Ring.t
    val stop_requested : 'a shared -> bool

    val spawn_with :
      ?capacity:int ->
      name:string ->
      f:('a -> unit) ->
      consumer:('a shared -> ('a -> unit) -> unit) ->
      unit ->
      'a t
  end
end

module Make (Sc : Atomics_intf.SCHED) : S = struct
  module A = Sc.Atomic
  module Ring = Spsc.Make (A)

  (* The cross-domain state one worker shares with its producer. *)
  type 'a shared = {
    sh_ring : 'a Ring.t;
    sh_processed : int A.t;
        (* advanced by the consumer *after* [f] returns, so
           [processed = pushed] means fully processed, not merely popped *)
    sh_stop : bool A.t;
    sh_failure : (exn * Printexc.raw_backtrace) option A.t;
  }

  type 'a t = {
    sh : 'a shared;
    mutable pushed : int;  (* producer-local; only read cross-domain via [processed] *)
    dom : Sc.handle;
    mutable joined : bool;
    m_depth : Tm.Metrics.gauge;
    m_occupancy : Tm.Metrics.gauge;
    m_stalls : Tm.Metrics.counter;
    m_msgs : Tm.Metrics.counter;
    m_push_spins : Tm.Metrics.counter;
    m_sleeps : Tm.Metrics.counter;
  }

  (* Adaptive backpressure: spin briefly (cheap when the other side is
     actively running on another core), then sleep with exponentially
     doubling microsleeps capped at 1 ms. On a machine with fewer cores than
     domains the sleeps are what let the other side be scheduled at all, and
     the exponential ramp reaches the cap within ~10 syscalls — the previous
     linear ramp burned hundreds of short sleeps (syscall each) before
     yielding a useful quantum, which is where the jobs=2 < jobs=1 scaling
     inversion came from on small machines. Returns whether it slept, so
     callers can split spin/sleep telemetry without timing anything. *)
  let spin_limit = 32

  let backoff n =
    incr n;
    let k = !n - spin_limit in
    if k <= 0 then begin
      Sc.cpu_relax ();
      false
    end
    else begin
      Sc.sleep (Float.min 0.001 (1e-6 *. float_of_int (1 lsl Int.min 10 (k - 1))));
      true
    end

  (* Failure containment: an exception from [f] is parked in [sh_failure]
     (with its backtrace) and the worker keeps consuming and discarding,
     so the producer can never deadlock against a dead consumer; the
     failure surfaces from the producer's next push/drain/stop. *)
  let handle sh f m =
    (match A.get sh.sh_failure with
    | None -> (
      try f m
      with e -> A.set sh.sh_failure (Some (e, Printexc.get_raw_backtrace ())))
    | Some _ -> () (* failed: keep draining so the producer never blocks *));
    A.incr sh.sh_processed

  let run_consumer sh ~m_pop_spins ~m_sleeps f =
    let idle = ref 0 in
    (* Wait costs are accumulated locally and published when an idle episode
       ends — per-iteration counter increments would put telemetry writes on
       the spin path. *)
    let spins = ref 0 and sleeps = ref 0 in
    let flush_waits () =
      if !spins > 0 || !sleeps > 0 then begin
        if Tm.on () then begin
          Tm.Metrics.add m_pop_spins !spins;
          Tm.Metrics.add m_sleeps !sleeps
        end;
        spins := 0;
        sleeps := 0
      end
    in
    let handle m =
      idle := 0;
      flush_waits ();
      handle sh f m
    in
    let rec loop () =
      match Ring.try_pop sh.sh_ring with
      | Some m -> handle m; loop ()
      | None ->
        if A.get sh.sh_stop then final_drain ()
        else begin
          if backoff idle then incr sleeps else incr spins;
          loop ()
        end
    and final_drain () =
      (* The producer sets [sh_stop] only after its last push, and both are
         seq_cst, so any pop performed *after* observing the flag sees every
         preceding push. An empty pop observed *before* the flag proves
         nothing (the final push may land in between), hence this re-poll:
         exit only when a post-flag pop returns [None]. The model-check
         litmus [worker_stop_no_drain_racy] demonstrates what goes wrong
         without it: the pre-PR-5 loop that exits straight after observing
         the flag drops the trailing message in a 3-step interleaving. *)
      match Ring.try_pop sh.sh_ring with
      | Some m -> handle m; final_drain ()
      | None -> ()
    in
    loop ();
    flush_waits ()

  let make_t ?capacity ~name consumer =
    let sh =
      {
        sh_ring = Ring.create ?capacity ();
        sh_processed = A.make ~name:"processed" 0;
        sh_stop = A.make ~name:"stop_flag" false;
        sh_failure = A.make ~name:"failure" None;
      }
    in
    {
      sh;
      pushed = 0;
      dom = Sc.spawn (fun () -> consumer sh);
      joined = false;
      m_depth = Tm.Metrics.gauge (Printf.sprintf "ring.%s.depth" name);
      m_occupancy = Tm.Metrics.gauge (Printf.sprintf "ring.%s.occupancy" name);
      m_stalls = Tm.Metrics.counter (Printf.sprintf "ring.%s.stalls" name);
      m_msgs = Tm.Metrics.counter (Printf.sprintf "ring.%s.msgs" name);
      m_push_spins = Tm.Metrics.counter (Printf.sprintf "ring.%s.push_spins" name);
      m_sleeps = Tm.Metrics.counter (Printf.sprintf "ring.%s.sleeps" name);
    }

  let spawn ?capacity ~name ~f () =
    let m_pop_spins = Tm.Metrics.counter (Printf.sprintf "ring.%s.pop_spins" name) in
    let m_sleeps = Tm.Metrics.counter (Printf.sprintf "ring.%s.sleeps" name) in
    make_t ?capacity ~name (fun sh -> run_consumer sh ~m_pop_spins ~m_sleeps f)

  let check t =
    match A.get t.sh.sh_failure with
    | None -> ()
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt

  let pending t = t.pushed - A.get t.sh.sh_processed

  let occupancy t =
    float_of_int (Ring.length t.sh.sh_ring) /. float_of_int (Ring.capacity t.sh.sh_ring)

  (* Producer-side waiting (full-ring pushes and drains) shares one pair of
     wait counters; like the consumer, counts are accumulated locally and
     published once per episode. *)
  let wait_while t cond =
    if cond () then begin
      let n = ref 0 and spins = ref 0 and sleeps = ref 0 in
      while cond () do
        check t;
        if backoff n then incr sleeps else incr spins
      done;
      if Tm.on () then begin
        Tm.Metrics.add t.m_push_spins !spins;
        Tm.Metrics.add t.m_sleeps !sleeps
      end
    end

  let push t m =
    if not (Ring.try_push t.sh.sh_ring m) then begin
      if Tm.on () then Tm.Metrics.incr t.m_stalls;
      wait_while t (fun () -> not (Ring.try_push t.sh.sh_ring m))
    end;
    t.pushed <- t.pushed + 1;
    if Tm.on () then begin
      Tm.Metrics.incr t.m_msgs;
      let len = Ring.length t.sh.sh_ring in
      Tm.Metrics.set_max t.m_depth (float_of_int len);
      Tm.Metrics.set_max t.m_occupancy
        (float_of_int len /. float_of_int (Ring.capacity t.sh.sh_ring))
    end

  let drain t =
    wait_while t (fun () -> A.get t.sh.sh_processed < t.pushed);
    check t

  let stop t =
    if not t.joined then begin
      (* Draining first is not required for correctness (after observing the
         flag the consumer re-polls and exits only on an empty post-flag pop,
         so everything pushed before this point is processed) but bounds how
         long the join can take. *)
      A.set t.sh.sh_stop true;
      Sc.join t.dom;
      t.joined <- true
    end;
    check t

  module Private = struct
    type nonrec 'a shared = 'a shared

    let ring sh = sh.sh_ring
    let stop_requested sh = A.get sh.sh_stop

    let spawn_with ?capacity ~name ~f ~consumer () =
      make_t ?capacity ~name (fun sh -> consumer sh (handle sh f))
  end
end

include Make (Atomics_intf.Real_sched)
