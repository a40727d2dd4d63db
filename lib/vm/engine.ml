open Ormp_trace

type pool_state = {
  mutable cursor : int;
  exposed : int option; (* pieces' alloc-site id when pieces are probed *)
  mutable live_pieces : (int * int) list; (* (base, size), exposed mode only *)
}

type obj = { base : int; size : int; pool : pool_state option }

(* Probe delivery: the legacy path boxes one event per probe and hands it
   to the sink synchronously; the batched path writes accesses into a
   struct-of-arrays buffer and only boxes the rare object events. *)
type path = Direct of Sink.t | Batched of Batch.t

type t = {
  table : Instr.table;
  path : path;
  heap : Ormp_memsim.Allocator.t;
  rng : Ormp_util.Prng.t;
  statics : (string * obj) list;
}

let emit_event t ev =
  match t.path with Direct sink -> sink ev | Batched b -> Batch.event b ev

let emit_access t ~instr ~addr ~size ~is_store =
  match t.path with
  | Direct sink -> sink (Event.Access { instr; addr; size; is_store })
  | Batched b -> Batch.on_access b ~instr ~addr ~size ~is_store

let make_path ~config ~path ~statics =
  let open Config in
  let heap =
    Ormp_memsim.Allocator.create ~base:config.heap_base ~align:config.align config.policy
  in
  let table = Instr.create_table () in
  let placements =
    Ormp_memsim.Layout.assign ~base:config.static_base ~gap:config.static_gap statics
  in
  let t =
    { table; path; heap; rng = Ormp_util.Prng.create ~seed:config.seed; statics = [] }
  in
  let static_objs =
    List.map
      (fun p ->
        let open Ormp_memsim.Layout in
        let site = Instr.register table ~name:("static:" ^ p.entry.name) Instr.Alloc_site in
        emit_event t
          (Event.Alloc { site; addr = p.address; size = p.entry.size; type_name = Some p.entry.name });
        (p.entry.name, { base = p.address; size = p.entry.size; pool = None }))
      placements
  in
  { t with statics = static_objs }

let make ~config ~sink ~statics = make_path ~config ~path:(Direct sink) ~statics
let make_batched ~config ~batch ~statics = make_path ~config ~path:(Batched batch) ~statics

let table t = t.table
let rng t = t.rng
let allocator t = t.heap

let instr t ~name kind = Instr.register t.table ~name kind

let static t name =
  match List.assoc_opt name t.statics with
  | Some o -> o
  | None -> raise Not_found

let alloc t ~site ?type_name size =
  let base = Ormp_memsim.Allocator.alloc t.heap size in
  emit_event t (Event.Alloc { site; addr = base; size; type_name });
  { base; size; pool = None }

let free t ~site o =
  Ormp_memsim.Allocator.free t.heap o.base;
  emit_event t (Event.Free { addr = o.base; site = Some site })

let free_raw t ?site a = emit_event t (Event.Free { addr = a; site })

let addr o = o.base
let obj_size o = o.size

let access t ~instr ~size ~is_store o off =
  if off < 0 || off + size > o.size then
    invalid_arg
      (Printf.sprintf "Engine: access [%d,%d) outside object of size %d" off (off + size) o.size);
  emit_access t ~instr ~addr:(o.base + off) ~size ~is_store

let load t ~instr ?(size = 8) o off = access t ~instr ~size ~is_store:false o off
let store t ~instr ?(size = 8) o off = access t ~instr ~size ~is_store:true o off

let load_raw t ~instr ?(size = 8) a = emit_access t ~instr ~addr:a ~size ~is_store:false

let pool_create t ~site ?type_name ?(expose_pieces = false) ?pieces_site size =
  let exposed =
    match (expose_pieces, pieces_site) with
    | false, _ -> None
    | true, Some s -> Some s
    | true, None -> invalid_arg "Engine.pool_create: expose_pieces needs pieces_site"
  in
  let base = Ormp_memsim.Allocator.alloc t.heap size in
  (* Targeting the custom alloc functions means the pool's own malloc goes
     unprobed — otherwise the piece objects would overlap the pool object
     in the OMC's range index. *)
  if exposed = None then emit_event t (Event.Alloc { site; addr = base; size; type_name });
  { base; size; pool = Some { cursor = 0; exposed; live_pieces = [] } }

let pool_piece t ~pool size =
  match pool.pool with
  | None -> invalid_arg "Engine.pool_piece: not a pool"
  | Some st ->
    let aligned = (size + 7) / 8 * 8 in
    if st.cursor + aligned > pool.size then raise Out_of_memory;
    let base = pool.base + st.cursor in
    st.cursor <- st.cursor + aligned;
    (match st.exposed with
    | Some site ->
      st.live_pieces <- (base, size) :: st.live_pieces;
      emit_event t (Event.Alloc { site; addr = base; size; type_name = None })
    | None -> ());
    { base; size; pool = None }

let pool_reset t ~pool =
  match pool.pool with
  | None -> invalid_arg "Engine.pool_reset: not a pool"
  | Some st ->
    List.iter
      (fun (base, _) -> emit_event t (Event.Free { addr = base; site = None }))
      st.live_pieces;
    st.live_pieces <- [];
    st.cursor <- 0

let pool_destroy t ~site ~pool =
  match pool.pool with
  | None -> invalid_arg "Engine.pool_destroy: not a pool"
  | Some { exposed = None; _ } -> free t ~site pool
  | Some st ->
    (* exposed mode: the pieces are the profiled objects *)
    List.iter
      (fun (base, _) -> emit_event t (Event.Free { addr = base; site = Some site }))
      st.live_pieces;
    st.live_pieces <- [];
    Ormp_memsim.Allocator.free t.heap pool.base
