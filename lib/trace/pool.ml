(* See the mli. The functor parameter is named after the module it
   abstracts so that this file holds the repo's one [Worker.spawn] call
   (the lint rule [worker-spawn] keeps it that way). *)

module type S = sig
  type t

  val spawn : ?capacity:int -> ?name:string -> jobs:int -> unit -> t
  val size : t -> int
  val dispatch : t -> int -> (unit -> unit) -> unit
  val drain : t -> unit
  val stop : t -> unit
  val pending : t -> int
  val worker_occupancy : t -> int -> float
  val occupancy : t -> float
end

module Make (Worker : Worker.S) : S = struct
  type t = { workers : (unit -> unit) Worker.t array }

  let spawn ?capacity ?(name = "pool") ~jobs () =
    if jobs < 1 then invalid_arg "Pool.spawn: jobs must be >= 1";
    {
      workers =
        Array.init jobs (fun i ->
            Worker.spawn ?capacity ~name:(Printf.sprintf "%s%d" name i) ~f:(fun th -> th ()) ());
    }

  let size t = Array.length t.workers
  let dispatch t i th = Worker.push t.workers.(i) th
  let drain t = Array.iter Worker.drain t.workers

  let stop t =
    let failure = ref None in
    Array.iter
      (fun w ->
        try Worker.stop w
        with e -> if !failure = None then failure := Some (e, Printexc.get_raw_backtrace ()))
      t.workers;
    match !failure with Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ()

  let pending t = Array.fold_left (fun acc w -> acc + Worker.pending w) 0 t.workers
  let worker_occupancy t i = Worker.occupancy t.workers.(i)

  let occupancy t =
    Array.fold_left (fun acc w -> Float.max acc (Worker.occupancy w)) 0.0 t.workers
end

include Make (Worker)
