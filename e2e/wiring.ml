(* The profile runs the benchmark times.

   The untraced runs are the paths users run, called as they call them:
   - a full-stack run is Runner.run feeding every event to the serial
     Ormp_server.Pipeline (Pipeline.apply, then Pipeline.finalize). That
     is a daemon session at jobs=1 (`ormp serve`) and Client.reference
     (`ormp client --reference`), and event for event what
     `ormp session run` does at jobs=1 next to its journal;
   - a LEAP run is Leap.sink_batched under Runner.run_batched, its
     finalizer and Leap_io.save: `ormp leap W --save P` (Leap.profile).

   The traced runs make the same library calls into the same state, in
   the same order, with the monotonic clock around each call into a
   layer. Three things differ, none of them in the bytes written:
   - the CDC batch is fed through an outer batch of the same capacity
     that re-stages each chunk into it and flushes it, so the clock is
     read once per chunk around the CDC/OMC work;
   - the four WHOMP lanes are pushed one by one (what
     Whomp.collect_tuples does), so each grammar gets its own clock;
   - the full-stack run stages the RASG addresses and pushes them with
     Sequitur.push, one by one, once per 512 accesses, where
     Pipeline.apply pushes each address as it arrives. *)

module Batch = Ormp_trace.Batch
module Event = Ormp_trace.Event
module Runner = Ormp_vm.Runner
module Cdc = Ormp_core.Cdc
module Omc = Ormp_core.Omc
module Seq = Ormp_sequitur.Sequitur
module Whomp = Ormp_whomp.Whomp
module Rasg = Ormp_whomp.Rasg
module Leap = Ormp_leap.Leap
module Pipeline = Ormp_server.Pipeline

let ( // ) = Filename.concat
let site_name = Printf.sprintf "site%d"
let whomp_file = Pipeline.whomp_file
let rasg_file = Pipeline.rasg_file
let leap_file = Pipeline.leap_file
let now_ns () = Int64.to_int (Ormp_util.Clock.now_ns ())

(* --- untraced: the paths users run ------------------------------------- *)

(* Each returns the profiler state it built, so the heap figure can hold
   it. *)

let pipeline ~config ~dir program =
  let pipe = Pipeline.create () in
  ignore (Runner.run ~config program (Pipeline.apply pipe));
  Pipeline.finalize pipe ~dir ~elapsed:0.0;
  pipe

let leap ~config ~dir program =
  let b, fin = Leap.sink_batched ~site_name () in
  ignore (Runner.run_batched ~config program b);
  let profile = fin ~elapsed:0.0 in
  Ormp_persist.Leap_io.save (dir // leap_file) profile;
  profile

(* --- traced: the same calls, clocked ----------------------------------- *)

(* Stage slots of a traced run's clock array, in ns. *)
let s_instr = 0
let s_group = 1
let s_object = 2
let s_offset = 3
let s_rasg = 4
let s_leap = 5
let s_cdc = 6 (* calls into the CDC batch, with the tuple callbacks they make *)
let s_finish = 7
let s_save_whomp = 8
let s_save_rasg = 9
let s_save_leap = 10
let n_stages = 11

(* The tuple callbacks, made inside the s_cdc calls. *)
let tuple_slots = [ s_instr; s_group; s_object; s_offset; s_leap ]

let grammar_names = [| "instr"; "group"; "object"; "offset"; "rasg" |]

(* What a traced run leaves behind: the counters the per-layer metrics
   read. *)
type run = {
  cdc : Cdc.t;
  grammars : Seq.t array;  (* the five grammars; empty for LEAP runs *)
  leap : Leap.profile;
  accesses : int;  (* pushed into the RASG grammar *)
  chunks : int;  (* tuple chunks handed on by the CDC *)
}

let[@inline] add ns slot t0 t1 = ns.(slot) <- ns.(slot) + (t1 - t0)

(* [inner] behind an outer batch of the same capacity: each outer chunk
   is re-staged into [inner] and flushed, and each alloc/free forwarded,
   so [inner] delivers the chunks it would if fed directly. *)
let clocked_cdc ns inner =
  Batch.create
    ~on_chunk:(fun (c : Batch.chunk) ->
      let t0 = now_ns () in
      for i = 0 to c.len - 1 do
        Batch.on_access inner ~instr:c.instr.(i) ~addr:c.addr.(i) ~size:c.size.(i)
          ~is_store:(c.store.(i) <> 0)
      done;
      Batch.flush inner;
      add ns s_cdc t0 (now_ns ()))
    ~on_event:(fun ev ->
      let t0 = now_ns () in
      Batch.event inner ev;
      add ns s_cdc t0 (now_ns ()))
    ()

let traced_pipeline ns ~config ~dir program =
  let wc = Whomp.collector () and lc = Leap.collector () and rasg = Seq.create () in
  let dims = Array.of_list (List.map snd (Whomp.collector_dims wc)) in
  let chunks = ref 0 in
  let on_tuples (tp : Cdc.tuples) =
    let len = tp.tp_len in
    incr chunks;
    let t0 = now_ns () in
    Seq.push_batch dims.(0) tp.tp_instr ~off:0 ~len;
    let t1 = now_ns () in
    Seq.push_batch dims.(1) tp.tp_group ~off:0 ~len;
    let t2 = now_ns () in
    Seq.push_batch dims.(2) tp.tp_obj ~off:0 ~len;
    let t3 = now_ns () in
    Seq.push_batch dims.(3) tp.tp_offset ~off:0 ~len;
    let t4 = now_ns () in
    Leap.collect_tuples lc tp;
    let t5 = now_ns () in
    add ns s_instr t0 t1;
    add ns s_group t1 t2;
    add ns s_object t2 t3;
    add ns s_offset t3 t4;
    add ns s_leap t4 t5
  in
  let cdc = Cdc.create ~site_name ~on_tuple:(fun _ -> assert false) () in
  let batch = clocked_cdc ns (Cdc.batch_tuples cdc ~on_tuples ()) in
  let stage = Array.make Batch.default_capacity 0 in
  let staged = ref 0 and accesses = ref 0 in
  let push_staged () =
    let t0 = now_ns () in
    for i = 0 to !staged - 1 do
      Seq.push rasg stage.(i)
    done;
    add ns s_rasg t0 (now_ns ());
    accesses := !accesses + !staged;
    staged := 0
  in
  let apply (ev : Event.t) =
    (match ev with
    | Access { addr; _ } ->
      if !staged = Array.length stage then push_staged ();
      stage.(!staged) <- addr;
      incr staged
    | Alloc _ | Free _ -> ());
    Batch.event batch ev
  in
  ignore (Runner.run ~config program apply);
  push_staged ();
  Batch.flush batch;
  (* Pipeline.finalize's order. *)
  let t1 = now_ns () in
  let collected = Cdc.collected cdc and wild = Cdc.wild cdc in
  let omc = Cdc.omc cdc in
  Ormp_persist.Whomp_io.save (dir // whomp_file)
    {
      Whomp.dims = Whomp.collector_dims wc;
      collected;
      wild;
      groups = Omc.groups omc;
      lifetimes = Omc.lifetimes omc;
      elapsed = 0.0;
    };
  let t2 = now_ns () in
  Ormp_persist.Rasg_io.save (dir // rasg_file)
    { Rasg.grammar = rasg; accesses = !accesses; elapsed = 0.0 };
  let t3 = now_ns () in
  let leap = Leap.finish lc ~collected ~wild ~elapsed:0.0 in
  let t4 = now_ns () in
  Ormp_persist.Leap_io.save (dir // leap_file) leap;
  let t5 = now_ns () in
  add ns s_save_whomp t1 t2;
  add ns s_save_rasg t2 t3;
  add ns s_finish t3 t4;
  add ns s_save_leap t4 t5;
  { cdc; grammars = Array.append dims [| rasg |]; leap; accesses = !accesses; chunks = !chunks }

let traced_leap ns ~config ~dir program =
  let lc = Leap.collector () in
  let chunks = ref 0 in
  let on_tuples tp =
    incr chunks;
    let t0 = now_ns () in
    Leap.collect_tuples lc tp;
    add ns s_leap t0 (now_ns ())
  in
  let cdc = Cdc.create ~site_name ~on_tuple:(fun _ -> assert false) () in
  let b = clocked_cdc ns (Cdc.batch_tuples cdc ~on_tuples ()) in
  ignore (Runner.run_batched ~config program b);
  let t1 = now_ns () in
  let leap = Leap.finish lc ~collected:(Cdc.collected cdc) ~wild:(Cdc.wild cdc) ~elapsed:0.0 in
  let t2 = now_ns () in
  Ormp_persist.Leap_io.save (dir // leap_file) leap;
  let t3 = now_ns () in
  add ns s_finish t1 t2;
  add ns s_save_leap t2 t3;
  { cdc; grammars = [||]; leap; accesses = 0; chunks = !chunks }

(* --- timers -------------------------------------------------------------- *)

(* [Experiments.measure_dilation]'s native-run timer: time whole batches
   of runs, doubling the batch until one batch takes at least 50 ms. The
   batch size found on the first call is kept, so later calls time one
   batch of that size. Returns seconds per run. *)
type timer = { mutable n : int; once : unit -> unit }

let timer once = { n = 0; once }

let time_batch tm =
  let run n =
    let t0 = Ormp_util.Clock.now_s () in
    for _ = 1 to n do
      tm.once ()
    done;
    Ormp_util.Clock.now_s () -. t0
  in
  if tm.n > 0 then run tm.n /. float_of_int tm.n
  else
    let rec go n =
      let t = run n in
      if t >= 0.05 || n >= 512 then begin
        tm.n <- n;
        t /. float_of_int n
      end
      else go (n * 2)
    in
    go 1

let native ~config program = timer (fun () -> ignore (Runner.run_bare ~config program))

(* The VM plus Batch staging alone: the run's own Runner call into a
   batch whose consumers do nothing. *)
let staging ~config ~full program =
  let noop () = Batch.create ~on_chunk:ignore ~on_event:ignore () in
  timer
    (if full then fun () -> ignore (Runner.run ~config program (Batch.event (noop ())))
     else fun () -> ignore (Runner.run_batched ~config program (noop ())))
