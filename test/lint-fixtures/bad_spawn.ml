(* Seeded worker-spawn violation — this file is a fixture, never built.
   Only the worker pool (trace/pool.ml) may spawn workers. *)

let private_pool () =
  Ormp_trace.Worker.spawn ~name:"side" ~f:(fun th -> th ()) () (* finding: worker-spawn *)

(* prose mentioning Worker.spawn in a comment must not count *)
