(* See the mli. One CDC translates each access once; its SoA tuple chunks
   feed the four WHOMP grammars and LEAP, and every raw access address
   feeds the RASG grammar through one staging lane, pushed a run at a
   time. With a pool, the five grammar pushes run on
   pinned workers (per-grammar order, and thus bytes, stay serial) and
   each session's failures are captured per session, so one session's
   compressor exception can never poison workers other sessions share. *)

module Cdc = Ormp_core.Cdc
module Omc = Ormp_core.Omc
module W = Ormp_whomp.Whomp
module Rasg = Ormp_whomp.Rasg
module Leap = Ormp_leap.Leap
module Seq_c = Ormp_sequitur.Sequitur
module Batch = Ormp_trace.Batch
module Event = Ormp_trace.Event
module Pool = Ormp_trace.Pool

let whomp_file = "whomp.profile"
let rasg_file = "rasg.profile"
let leap_file = "leap.profile"

let default_site_name site = Printf.sprintf "site%d" site

let table_site_name table site =
  match !table with
  | None -> default_site_name site
  | Some t -> (Ormp_trace.Instr.info t site).Ormp_trace.Instr.name

(* The live WHOMP grammars. Mutable so [rotate] can swap in fresh ones:
   the chunk callback re-reads them for every chunk. [dims] caches the
   four grammars of [whomp] in dimension order for the pool path. *)
type whomp = { mutable collector : W.collector; mutable dims : Seq_c.t array }

type par = {
  pool : Pool.t;
  slots : int array;  (* worker index per grammar: 4 WHOMP dims + RASG *)
}

type t = {
  cdc : Cdc.t;
  batch : Batch.t;
  w : whomp;
  mutable rasg : Seq_c.t;
  stage_addr : int array;  (* RASG staging; the dim lanes stage inside the CDC *)
  mutable stage_len : int;
  leap : Leap.collector;
  par : par option;
  failed : exn option ref;
  mutable rasg_accesses : int;  (* the accesses the live RASG grammar holds *)
  mutable position : int;
}

let dims_of whomp = Array.of_list (List.map snd (W.collector_dims whomp))

(* Park the first failure for the producer; the worker itself stays
   healthy for every other session multiplexed onto it. The ref is
   plain: the worker's write is ordered before its processed-counter
   publish, which [Pool.drain] acquires, so the producer reads it after
   any drain. *)
let guard failed f () = try f () with e -> if !failed = None then failed := Some e

let create ?pool ?(site_name = default_site_name) ?restore ?leap_budget ?max_streams () =
  let whomp, rasg, leap_restore =
    match restore with
    | None -> (W.collector (), Seq_c.create (), None)
    | Some (s : Snapshot.t) -> (W.collector ~restore:s.whomp (), s.rasg, Some s.leap)
  in
  let w = { collector = whomp; dims = dims_of whomp } in
  let leap = Leap.collector ?budget:leap_budget ?max_streams ?restore:leap_restore () in
  let failed = ref None in
  let par =
    Option.map
      (fun (p, slot) ->
        { pool = p; slots = Array.init 5 (fun d -> (slot + d) mod Pool.size p) })
      pool
  in
  let on_tuples =
    match par with
    | None ->
      (* Serial: each lane goes straight into its grammar as a batch (no
         copies; the push consumes the chunk synchronously). *)
      fun (tp : Cdc.tuples) ->
        W.collect_tuples w.collector tp;
        Leap.collect_tuples leap tp
    | Some par ->
      fun (tp : Cdc.tuples) ->
        let len = tp.Cdc.tp_len in
        if len > 0 then begin
          let lanes = [| tp.tp_instr; tp.tp_group; tp.tp_obj; tp.tp_offset |] in
          for d = 0 to 3 do
            (* Copy the lane out of the reused chunk before handing it to
               the worker; the pinned slot keeps this grammar's pushes in
               producer order. *)
            let copy = Array.sub lanes.(d) 0 len in
            let gd = w.dims.(d) in
            Pool.dispatch par.pool par.slots.(d)
              (guard failed (fun () -> Seq_c.push_batch gd copy ~off:0 ~len))
          done;
          (* LEAP admission order is global per session, so it stays on
             the producer thread — it is cheap next to grammar upkeep. *)
          Leap.collect_tuples leap tp
        end
  in
  (* The tuple-chunk path never calls [on_tuple]; every event goes
     through [batch]. *)
  let on_tuple _ = assert false in
  let cdc, position, rasg_accesses =
    match restore with
    | None -> (Cdc.create ~site_name ~on_tuple (), 0, 0)
    | Some s ->
      (Cdc.of_state ~site_name ~on_tuple s.cdc, s.position, Seq_c.input_length s.rasg)
  in
  let batch = Cdc.batch_tuples cdc ~on_tuples () in
  {
    cdc;
    batch;
    w;
    rasg;
    stage_addr = Array.make Batch.default_capacity 0;
    stage_len = 0;
    leap;
    par;
    failed;
    rasg_accesses;
    position;
  }

(* Push the staged RASG run: in place when serial (the push consumes the
   lane before returning), as a copy on the grammar's pinned worker when
   pooled. *)
let flush_stage t =
  let len = t.stage_len in
  if len > 0 then begin
    (match t.par with
    | None -> Seq_c.push_batch t.rasg t.stage_addr ~off:0 ~len
    | Some p ->
      let copy = Array.sub t.stage_addr 0 len in
      let g = t.rasg in
      Pool.dispatch p.pool p.slots.(4)
        (guard t.failed (fun () -> Seq_c.push_batch g copy ~off:0 ~len)));
    t.stage_len <- 0
  end

let[@inline] stage t addr =
  if t.stage_len = Array.length t.stage_addr then flush_stage t;
  Array.unsafe_set t.stage_addr t.stage_len addr;
  t.stage_len <- t.stage_len + 1

let apply t (ev : Event.t) =
  (match ev with
  | Access { addr; _ } ->
    t.rasg_accesses <- t.rasg_accesses + 1;
    stage t addr
  | Alloc _ | Free _ -> ());
  Batch.event t.batch ev;
  t.position <- t.position + 1

let apply_chunk t (c : Batch.chunk) ~off ~len =
  if off < 0 || len < 0 || off > c.len - len then invalid_arg "Pipeline.apply_chunk";
  for i = off to off + len - 1 do
    let addr = Array.unsafe_get c.addr i in
    stage t addr;
    Batch.on_access t.batch ~instr:(Array.unsafe_get c.instr i) ~addr
      ~size:(Array.unsafe_get c.size i)
      ~is_store:(Array.unsafe_get c.store i <> 0)
  done;
  t.rasg_accesses <- t.rasg_accesses + len;
  t.position <- t.position + len

let position t = t.position

let quiesce t =
  Batch.flush t.batch;
  flush_stage t;
  match t.par with None -> () | Some p -> Pool.drain p.pool

let failure t = !(t.failed)

(* Quiesce, then surface a pooled compressor's failure: everything below
   reads state that is only exact (and only meaningful) on success. *)
let sync t =
  quiesce t;
  Option.iter raise (failure t)

let collected t = Cdc.collected t.cdc
let wild t = Cdc.wild t.cdc
let grammars t = W.collector_dims t.w.collector @ [ ("rasg", t.rasg) ]

let grammar_symbols t =
  quiesce t;
  List.fold_left (fun acc (_, g) -> acc + Seq_c.grammar_size g) 0 (grammars t)

let live_objects t = Omc.live_objects (Cdc.omc t.cdc)
let leap_streams t = Leap.stream_count t.leap

(* Worst ring occupancy across this session's pinned slots — the
   backpressure this one session sees, as opposed to [Pool.occupancy]'s
   pool-wide view. Racy by design, like every occupancy read. *)
let occupancy t =
  match t.par with
  | None -> 0.0
  | Some p ->
    Array.fold_left (fun acc slot -> Float.max acc (Pool.worker_occupancy p.pool slot)) 0.0 p.slots

let rotate t =
  sync t;
  let sealed = grammars t in
  let whomp = W.collector () in
  t.w.collector <- whomp;
  t.w.dims <- dims_of whomp;
  t.rasg <- Seq_c.create ();
  t.rasg_accesses <- 0;
  sealed

let cdc_state t =
  sync t;
  Cdc.state t.cdc

let leap_live t =
  sync t;
  Leap.live t.leap

let whomp_profile t ~elapsed =
  sync t;
  let omc = Cdc.omc t.cdc in
  (* The gauges cover all five grammars and the OMC, so a --telemetry
     snapshot spans every profiler stage. *)
  Omc.publish_gauges omc;
  W.publish_dim_gauges (grammars t);
  {
    W.dims = W.collector_dims t.w.collector;
    collected = Seq_c.input_length t.w.dims.(0);
    wild = Cdc.wild t.cdc;
    groups = Omc.groups omc;
    lifetimes = Omc.lifetimes omc;
    elapsed;
  }

let rasg_profile t ~elapsed =
  sync t;
  { Rasg.grammar = t.rasg; accesses = t.rasg_accesses; elapsed }

let leap_profile t ~elapsed =
  sync t;
  Leap.finish t.leap ~collected:(Cdc.collected t.cdc) ~wild:(Cdc.wild t.cdc) ~elapsed

let ( // ) = Filename.concat

let finalize t ~dir ~elapsed =
  Ormp_persist.Whomp_io.save (dir // whomp_file) (whomp_profile t ~elapsed);
  Ormp_persist.Rasg_io.save (dir // rasg_file) (rasg_profile t ~elapsed);
  Ormp_persist.Leap_io.save (dir // leap_file) (leap_profile t ~elapsed)

let with_pool ~jobs f =
  if jobs <= 1 then f None
  else begin
    let pool = Pool.spawn ~name:"pipeline" ~jobs:(jobs - 1) () in
    Fun.protect ~finally:(fun () -> Pool.stop pool) (fun () -> f (Some (pool, 0)))
  end

let run ?config ?(jobs = 1) ?site_name ?(wrap = Fun.id) program =
  let table = ref None in
  let site_name = Option.value site_name ~default:(table_site_name table) in
  with_pool ~jobs @@ fun pool ->
  let t = create ?pool ~site_name () in
  let lanes =
    Batch.create ~on_chunk:(fun c -> apply_chunk t c ~off:0 ~len:c.len) ~on_event:(apply t) ()
  in
  let result = Ormp_vm.Runner.run_batched ?config program (wrap lanes) in
  table := Some result.Ormp_vm.Runner.table;
  sync t;
  (t, result)
