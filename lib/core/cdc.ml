module Tm = Ormp_telemetry.Telemetry

(* Chunk-granularity telemetry: the per-access loop stays untouched. *)
let m_chunk_ns = Tm.Metrics.histogram "cdc.chunk.ns"
let m_chunks = Tm.Metrics.counter "cdc.chunks"
let m_tuples = Tm.Metrics.counter "cdc.tuples"
let m_wild = Tm.Metrics.counter "cdc.wild"

type t = {
  omc : Omc.t;
  on_tuple : Tuple.t -> unit;
  on_wild : Ormp_trace.Event.t -> unit;
  mutable clock : int;
  mutable wild : int;
}

let create ?grouping ?(on_wild = fun _ -> ()) ~site_name ~on_tuple () =
  { omc = Omc.create ?grouping ~site_name (); on_tuple; on_wild; clock = 0; wild = 0 }

let sink t =
  fun (ev : Ormp_trace.Event.t) ->
    match ev with
    | Access { instr; addr; size = _; is_store } -> (
      match Omc.translate t.omc addr with
      | Some (group, obj, offset) ->
        let tuple = { Tuple.instr; group; obj; offset; time = t.clock; is_store } in
        t.clock <- t.clock + 1;
        t.on_tuple tuple
      | None ->
        t.wild <- t.wild + 1;
        t.on_wild ev)
    | Alloc { site; addr; size; type_name } ->
      Omc.on_alloc t.omc ~time:t.clock ~site ~addr ~size ~type_name
    | Free { addr; site } -> Omc.on_free ?site t.omc ~time:t.clock ~addr

(* --- SoA tuple chunks (pipeline fan-out source) ----------------------- *)

type tuples = {
  tp_instr : int array;
  tp_group : int array;
  tp_obj : int array;
  tp_offset : int array;
  tp_store : int array;
  mutable tp_len : int;
  mutable tp_time0 : int;
}

let batch_tuples ?capacity t ~on_tuples () =
  let capacity =
    match capacity with Some c -> c | None -> Ormp_trace.Batch.default_capacity
  in
  let groups = Array.make capacity 0 in
  let serials = Array.make capacity 0 in
  let offsets = Array.make capacity 0 in
  let out =
    {
      tp_instr = Array.make capacity 0;
      tp_group = Array.make capacity 0;
      tp_obj = Array.make capacity 0;
      tp_offset = Array.make capacity 0;
      tp_store = Array.make capacity 0;
      tp_len = 0;
      tp_time0 = 0;
    }
  in
  let on_chunk (c : Ormp_trace.Batch.chunk) =
    let len = c.len in
    if len > capacity then invalid_arg "Cdc.batch_tuples: chunk larger than capacity";
    let t0 = if Tm.on () then Tm.now_ns () else 0L in
    let clock0 = t.clock and wild0 = t.wild in
    Omc.translate_batch t.omc ~instrs:c.instr ~addrs:c.addr ~len ~groups ~serials ~offsets;
    (* Compact the translated accesses into one SoA tuple chunk. Stamps
       are consecutive (the clock advances only on translated accesses),
       so the chunk carries just the first one. *)
    out.tp_time0 <- t.clock;
    out.tp_len <- 0;
    for i = 0 to len - 1 do
      let group = Array.unsafe_get groups i in
      if group >= 0 then begin
        let j = out.tp_len in
        Array.unsafe_set out.tp_instr j (Array.unsafe_get c.instr i);
        Array.unsafe_set out.tp_group j group;
        Array.unsafe_set out.tp_obj j (Array.unsafe_get serials i);
        Array.unsafe_set out.tp_offset j (Array.unsafe_get offsets i);
        Array.unsafe_set out.tp_store j (Array.unsafe_get c.store i);
        out.tp_len <- j + 1;
        t.clock <- t.clock + 1
      end
      else begin
        t.wild <- t.wild + 1;
        t.on_wild
          (Ormp_trace.Event.Access
             {
               instr = c.instr.(i);
               addr = c.addr.(i);
               size = c.size.(i);
               is_store = c.store.(i) <> 0;
             })
      end
    done;
    if out.tp_len > 0 then on_tuples out;
    if Tm.on () then begin
      Tm.Metrics.observe m_chunk_ns (Int64.to_float (Int64.sub (Tm.now_ns ()) t0));
      Tm.Metrics.incr m_chunks;
      Tm.Metrics.add m_tuples (t.clock - clock0);
      Tm.Metrics.add m_wild (t.wild - wild0)
    end
  in
  let on_event (ev : Ormp_trace.Event.t) =
    match ev with
    | Alloc { site; addr; size; type_name } ->
      Omc.on_alloc t.omc ~time:t.clock ~site ~addr ~size ~type_name
    | Free { addr; site } -> Omc.on_free ?site t.omc ~time:t.clock ~addr
    | Access _ -> assert false
  in
  Ormp_trace.Batch.create ~capacity ~on_chunk ~on_event ()

let omc t = t.omc
let collected t = t.clock
let wild t = t.wild

type state = { s_omc : Omc.state; s_clock : int; s_wild : int }

let state t = { s_omc = Omc.state t.omc; s_clock = t.clock; s_wild = t.wild }

let of_state ?(on_wild = fun _ -> ()) ~site_name ~on_tuple (s : state) =
  {
    omc = Omc.of_state ~site_name s.s_omc;
    on_tuple;
    on_wild;
    clock = s.s_clock;
    wild = s.s_wild;
  }
