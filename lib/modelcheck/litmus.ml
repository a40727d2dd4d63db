(* The litmus suite: tiny configurations of the production transport
   code, explored exhaustively. Every module under test here is the real
   source — [Spsc.Make]/[Worker.Make]/[Pool.Make] applied to the
   traced scheduler — except [worker_stop_no_drain_racy], which injects
   the pre-PR-5 consumer loop through [Worker.Private.spawn_with] to
   prove the checker finds the shutdown race that loop had. *)

module W = Ormp_trace.Worker.Make (Mc.Sched)
module R = Ormp_trace.Spsc.Make (Mc.Sched.Atomic)
module PL = Ormp_trace.Pool.Make (W)

type case = {
  name : string;
  descr : string;
  expect_violation : bool;
  exhaustive : bool;
      (* false: the state space is known not to fit the budget (3-domain
         pool configs); the case is a bounded search and an exhausted
         budget is not a failure *)
  budget : int;  (* per-case interleaving budget *)
  prog : unit -> unit;
}

type result = { case : case; stats : Mc.stats; ok : bool }

(* --- raw ring ---------------------------------------------------------- *)

let spin_push r v =
  let rec go () =
    if not (R.try_push r v) then begin
      Mc.Sched.cpu_relax ();
      go ()
    end
  in
  go ()

let spin_pop r =
  let rec go () =
    match R.try_pop r with
    | Some v -> v
    | None ->
      Mc.Sched.cpu_relax ();
      go ()
  in
  go ()

let spsc_fifo ~capacity ~n () =
  let r = R.create ~capacity () in
  let popped = ref [] in
  let consumer =
    Mc.Sched.spawn (fun () ->
        for _ = 1 to n do
          popped := spin_pop r :: !popped
        done)
  in
  for i = 1 to n do
    spin_push r i
  done;
  Mc.Sched.join consumer;
  Mc.check_that
    (List.rev !popped = List.init n (fun i -> i + 1))
    "messages arrive in push order, none lost, none duplicated"

let spsc_length_bounds ~capacity ~n () =
  let r = R.create ~capacity () in
  let consumer =
    Mc.Sched.spawn (fun () ->
        for _ = 1 to n do
          ignore (spin_pop r)
        done)
  in
  let observer =
    Mc.Sched.spawn (fun () ->
        (* No relax between probes: an unconditional wait would block on
           quiet rings, and each [length] is two scheduling points already,
           so the DFS places the probes everywhere that matters. *)
        for _ = 1 to 2 do
          let l = R.length r in
          Mc.check_that (l >= 0 && l <= capacity)
            "length stays in [0, capacity] under concurrent push/pop"
        done)
  in
  for i = 1 to n do
    spin_push r i
  done;
  Mc.Sched.join consumer;
  Mc.Sched.join observer

(* --- worker ------------------------------------------------------------ *)

let worker_stop_no_drain ~capacity ~n () =
  let sum = ref 0 in
  let w = W.spawn ~capacity ~name:"mc.worker" ~f:(fun x -> sum := !sum + x) () in
  for i = 1 to n do
    W.push w i
  done;
  (* The hard case from PR 5: stop with no drain in between — the final
     message may still be in flight when the flag lands. *)
  W.stop w;
  Mc.check_that (!sum = n * (n + 1) / 2) "stop processes every message pushed before it";
  Mc.check_that (W.pending w = 0) "stop leaves nothing pending"

(* The deliberately reverted consumer: exits as soon as an empty poll is
   followed by an observed stop flag, without re-polling. The producer's
   final push can land between the two, and the checker must find that
   schedule. *)
let racy_consumer sh handle =
  let rec loop () =
    match W.Ring.try_pop (W.Private.ring sh) with
    | Some m ->
      handle m;
      loop ()
    | None ->
      if W.Private.stop_requested sh then () (* BUG: no post-flag re-poll *)
      else begin
        Mc.Sched.cpu_relax ();
        loop ()
      end
  in
  loop ()

let worker_stop_no_drain_racy ~capacity ~n () =
  let sum = ref 0 in
  let w =
    W.Private.spawn_with ~capacity ~name:"mc.racy"
      ~f:(fun x -> sum := !sum + x)
      ~consumer:racy_consumer ()
  in
  for i = 1 to n do
    W.push w i
  done;
  W.stop w;
  Mc.check_that (!sum = n * (n + 1) / 2) "stop processes every message pushed before it"

let worker_drain_barrier ~capacity () =
  let sum = ref 0 in
  let w = W.spawn ~capacity ~name:"mc.drain" ~f:(fun x -> sum := !sum + x) () in
  W.push w 1;
  W.push w 2;
  W.drain w;
  (* The consumer's writes must be ordered before this read: drain may not
     return while [f] is still running on a popped message. *)
  Mc.check_that (!sum = 3) "drain returns only after every push is fully processed";
  Mc.check_that (W.pending w = 0) "drain leaves nothing pending";
  W.push w 3;
  W.stop w;
  Mc.check_that (!sum = 6) "pushes after a drain still arrive"

exception Boom

let worker_failure_containment ~capacity () =
  let seen = ref [] in
  let w =
    W.spawn ~capacity ~name:"mc.fail"
      ~f:(fun x ->
        seen := x :: !seen;
        if x = 2 then raise Boom)
      ()
  in
  (* The failure surfaces from whichever producer call first observes it:
     a push that had to wait on a full ring, or the final stop. Either
     way it must surface, and the worker must have kept draining. *)
  let surfaced = ref false in
  (try
     W.push w 1;
     W.push w 2;
     W.push w 3
   with Boom -> surfaced := true);
  (match W.stop w with
  | () -> ()
  | exception Boom -> surfaced := true);
  Mc.check_that !surfaced "the worker failure surfaces on the producer";
  Mc.check_that (W.pending w = 0) "failed worker keeps draining (producer can never block)";
  Mc.check_that
    (List.rev !seen = [ 1; 2 ])
    "messages before the failure are processed, ones after it are discarded"

(* --- slot-pinned pool -------------------------------------------------- *)

(* The pipeline's pinning discipline, at the smallest sizes: each slot's
   thunks go to worker [slot mod workers] through rings of capacity 1,
   and the drain must leave every slot's stream complete and in dispatch
   order. *)
let pool_slot_pinning ~workers ~nslots ~per_slot () =
  let out = Array.make nslots [] in
  let p = PL.spawn ~capacity:1 ~name:"mc.pool" ~jobs:workers () in
  for s = 0 to nslots - 1 do
    for v = 1 to per_slot do
      let x = (10 * s) + v in
      PL.dispatch p (s mod workers) (fun () -> out.(s) <- x :: out.(s))
    done
  done;
  PL.drain p;
  Mc.check_that (PL.pending p = 0) "drain leaves nothing pending";
  for s = 0 to nslots - 1 do
    Mc.check_that
      (List.rev out.(s) = List.init per_slot (fun i -> (10 * s) + i + 1))
      "each slot's stream is complete and in dispatch order after drain"
  done;
  PL.stop p

(* --- the suite --------------------------------------------------------- *)

let case name ?(expect_violation = false) ?(exhaustive = true) ?(budget = Mc.default_interleavings)
    descr prog =
  { name; descr; expect_violation; exhaustive; budget; prog }

let cases =
  [
    case "spsc_fifo_cap1_n2" "ring cap 1, 2 msgs: FIFO, no loss, no dup" (spsc_fifo ~capacity:1 ~n:2);
    case "spsc_fifo_cap2_n3" "ring cap 2, 3 msgs: FIFO, no loss, no dup" (spsc_fifo ~capacity:2 ~n:3);
    case "spsc_fifo_cap3_n3" "ring cap 3, 3 msgs: FIFO, no loss, no dup" (spsc_fifo ~capacity:3 ~n:3);
    case "spsc_length_bounds" "racy length snapshot stays in [0, cap]"
      (spsc_length_bounds ~capacity:1 ~n:2);
    case "worker_stop_no_drain_cap1_n2" "stop without drain loses nothing (cap 1)"
      (worker_stop_no_drain ~capacity:1 ~n:2);
    case "worker_stop_no_drain_cap2_n3" "stop without drain loses nothing (cap 2)"
      (worker_stop_no_drain ~capacity:2 ~n:3);
    case "worker_stop_no_drain_racy" ~expect_violation:true
      "pre-PR-5 consumer: checker must find the lost trailing message"
      (worker_stop_no_drain_racy ~capacity:2 ~n:2);
    case "worker_drain_barrier" "drain is a full barrier; worker usable after"
      (worker_drain_barrier ~capacity:1);
    case "worker_failure_containment" "exception in f surfaces on stop; worker keeps draining"
      (worker_failure_containment ~capacity:2);
    case "pool_slot_pinning_1w2s" "pool: 2 slots share 1 worker; streams stay pinned, drain quiesces"
      (pool_slot_pinning ~workers:1 ~nslots:2 ~per_slot:1);
    case "pool_slot_pinning_2w2s" ~exhaustive:false ~budget:20_000
      "pool: 2 workers, 2 slots — bounded search (3-domain space outgrows the budget)"
      (pool_slot_pinning ~workers:2 ~nslots:2 ~per_slot:1);
  ]

let find name = List.find_opt (fun c -> c.name = name) cases

let run_case ?max_interleavings c =
  let max_interleavings =
    match max_interleavings with Some b -> min b c.budget | None -> c.budget
  in
  let stats = Mc.check ~max_interleavings c.prog in
  let ok =
    match stats.Mc.violation with
    | Some _ -> c.expect_violation
    | None ->
      (not c.expect_violation) && ((not stats.Mc.budget_exhausted) || not c.exhaustive)
  in
  { case = c; stats; ok }

let run_all ?max_interleavings () = List.map (run_case ?max_interleavings) cases
