module Ri = Ormp_interval.Range_index

(* The sanitizer keeps its own object database rather than reusing the
   OMC: it must remember *freed* objects (the graveyard) to attribute
   use-after-free and double-free, which the OMC deliberately forgets
   from its index the moment an object dies. Grouping is by allocation
   site, the same default the OMC uses, so findings speak the profilers'
   coordinates. *)
type sobj = {
  site : int;
  serial : int;  (** dense per allocation site *)
  base : int;
  size : int;
  alloc_time : int;
  mutable free_time : int option;
  mutable free_site : int option;
}

type raw = {
  kind : Finding.kind;
  r_instr : int option;
  r_addr : int;
  r_offset : int option;
  r_obj : sobj option;
  r_time : int;
  mutable r_count : int;
}

type t = {
  live : sobj Ri.t;
  graveyard : sobj Ri.t;
  serials : (int, int) Hashtbl.t;  (* alloc site -> next serial *)
  dedup : (Finding.kind * int * int * int, raw) Hashtbl.t;
  order : raw Ormp_util.Vec.t;  (* dedup values in first-occurrence order *)
  slack : int;
  mutable mru : sobj option;  (* last object an access resolved to *)
  mutable clock : int;  (* advances once per access inside a live object *)
  mutable accesses : int;
  mutable allocs : int;
  mutable frees : int;
}

let default_slack = 64

let create ?(slack = default_slack) () =
  if slack < 0 then invalid_arg "Sanitizer.create: slack must be non-negative";
  {
    live = Ri.create ();
    graveyard = Ri.create ();
    serials = Hashtbl.create 64;
    dedup = Hashtbl.create 64;
    order = Ormp_util.Vec.create ();
    slack;
    mru = None;
    clock = 0;
    accesses = 0;
    allocs = 0;
    frees = 0;
  }

let record t kind ?instr ?offset ?obj ~addr () =
  let key =
    ( kind,
      (match instr with Some i -> i | None -> -1),
      (match obj with Some o -> o.site | None -> -1),
      match obj with Some o -> o.serial | None -> -1 )
  in
  match Hashtbl.find_opt t.dedup key with
  | Some r -> r.r_count <- r.r_count + 1
  | None ->
    let r =
      {
        kind;
        r_instr = instr;
        r_addr = addr;
        r_offset = offset;
        r_obj = obj;
        r_time = t.clock;
        r_count = 1;
      }
    in
    Hashtbl.replace t.dedup key r;
    Ormp_util.Vec.push t.order r

(* Drop every graveyard range overlapping [base, base+size): the address
   space has been reused, so those corpses can no longer be blamed for
   accesses landing there. *)
let evict_graveyard t ~base ~size =
  let rec go () =
    match Ri.find_nearest_below t.graveyard (base + size - 1) with
    | Some (b, s, _) when b + s > base ->
      ignore (Ri.remove t.graveyard ~base:b);
      go ()
    | _ -> ()
  in
  go ()

let on_alloc t ~site ~addr ~size =
  t.allocs <- t.allocs + 1;
  evict_graveyard t ~base:addr ~size;
  let serial =
    let n = match Hashtbl.find_opt t.serials site with Some n -> n | None -> 0 in
    Hashtbl.replace t.serials site (n + 1);
    n
  in
  let o =
    { site; serial; base = addr; size; alloc_time = t.clock; free_time = None; free_site = None }
  in
  match Ri.insert t.live ~base:addr ~size o with
  | () -> ()
  | exception Invalid_argument _ ->
    (* A creation probe for memory that is already live: the probe stream
       itself is corrupt (a substrate bug, not a workload bug). *)
    let victim =
      match Ri.find_nearest_below t.live (addr + size - 1) with
      | Some (b, s, v) when b + s > addr -> Some v
      | _ -> None
    in
    record t Finding.Overlapping_alloc ~instr:site ?obj:victim ~addr ()

let on_free t ?site ~addr () =
  t.frees <- t.frees + 1;
  match Ri.find t.live addr with
  | Some (b, _, o) when b = addr ->
    o.free_time <- Some t.clock;
    o.free_site <- site;
    ignore (Ri.remove t.live ~base:addr);
    evict_graveyard t ~base:o.base ~size:o.size;
    Ri.insert t.graveyard ~base:o.base ~size:o.size o
  | Some (_, _, o) ->
    record t Finding.Invalid_free ?instr:site ~offset:(addr - o.base) ~obj:o ~addr ()
  | None -> (
    match Ri.find t.graveyard addr with
    | Some (b, _, o) when b = addr ->
      record t Finding.Double_free ?instr:site ~offset:0 ~obj:o ~addr ()
    | Some (_, _, o) ->
      record t Finding.Invalid_free ?instr:site ~offset:(addr - o.base) ~obj:o ~addr ()
    | None -> record t Finding.Invalid_free ?instr:site ~addr ())

(* An access that resolved to no live object: blame, in order of
   preference, the freed object whose former range contains it
   (use-after-free), a live object it sits within [slack] bytes of
   (out-of-bounds), or nothing (unmapped). The sanitizer clock does not
   advance — it mirrors the CDC's collected-access counter, so finding
   times line up with profile time stamps. *)
let classify_wild t ~instr ~addr =
  match Ri.find t.graveyard addr with
  | Some (_, _, o) ->
    record t Finding.Use_after_free ~instr ~offset:(addr - o.base) ~obj:o ~addr ()
  | None ->
    let below =
      match Ri.find_nearest_below t.live addr with
      | Some (b, s, o) when addr >= b + s && addr - (b + s) < t.slack ->
        Some (addr - (b + s), o)
      | _ -> None
    and above =
      match Ri.find_nearest_above t.live addr with
      | Some (b, _, o) when b - addr <= t.slack -> Some (b - addr, o)
      | _ -> None
    in
    let nearest =
      match (below, above) with
      | Some (d1, o1), Some (d2, o2) -> Some (if d1 <= d2 then o1 else o2)
      | (Some (_, o), None | None, Some (_, o)) -> Some o
      | None, None -> None
    in
    (match nearest with
    | Some o -> record t Finding.Out_of_bounds ~instr ~offset:(addr - o.base) ~obj:o ~addr ()
    | None -> record t Finding.Unmapped_access ~instr ~addr ())

let on_access_slow t ~instr ~addr =
  match Ri.find t.live addr with
  | Some (_, _, o) ->
    t.mru <- Some o;
    t.clock <- t.clock + 1
  | None -> classify_wild t ~instr ~addr

let[@inline] on_access t ~instr ~addr =
  t.accesses <- t.accesses + 1;
  match t.mru with
  | Some o when o.free_time = None && addr - o.base >= 0 && addr - o.base < o.size ->
    t.clock <- t.clock + 1
  | _ -> on_access_slow t ~instr ~addr

let batch ?capacity t =
  Ormp_trace.Batch.create ?capacity
    ~on_chunk:(fun c ->
      for i = 0 to c.len - 1 do
        on_access t ~instr:c.instr.(i) ~addr:c.addr.(i)
      done)
    ~on_event:(function
      | Ormp_trace.Event.Alloc { site; addr; size; type_name = _ } -> on_alloc t ~site ~addr ~size
      | Free { addr; site } -> on_free t ?site ~addr ()
      | Access _ -> assert false (* batches route accesses through on_chunk *))
    ()

let is_static_default label =
  String.length label >= 7 && String.sub label 0 7 = "static:"

let finish ?(leaks = false) ?(site_name = fun i -> Printf.sprintf "site#%d" i)
    ?(is_static_site = is_static_default) ~subject t =
  let raws = Ormp_util.Vec.fold_left (fun acc r -> r :: acc) [] t.order in
  let info (o : sobj) =
    let label = site_name o.site in
    {
      Finding.group = label;
      serial = o.serial;
      base = o.base;
      size = o.size;
      alloc_site = label;
      alloc_time = o.alloc_time;
      free_site = Option.map site_name o.free_site;
      free_time = o.free_time;
    }
  in
  let of_raw r =
    {
      Finding.kind = r.kind;
      severity = Finding.severity_of_kind r.kind;
      instr = Option.map site_name r.r_instr;
      addr = r.r_addr;
      offset = r.r_offset;
      obj = Option.map info r.r_obj;
      first_time = r.r_time;
      count = r.r_count;
    }
  in
  let leak_findings =
    if not leaks then []
    else begin
      (* One finding per allocation site, counting its still-live objects
         — per-object leak records would swamp the report on workloads
         that intentionally hold everything until exit. *)
      let by_site : (int, Finding.t) Hashtbl.t = Hashtbl.create 16 in
      let sites_in_order = ref [] in
      Ri.iter t.live (fun ~base:_ ~size:_ o ->
          if not (is_static_site (site_name o.site)) then
            match Hashtbl.find_opt by_site o.site with
            | Some f -> Hashtbl.replace by_site o.site { f with Finding.count = f.count + 1 }
            | None ->
              sites_in_order := o.site :: !sites_in_order;
              Hashtbl.replace by_site o.site
                (Finding.make ~obj:(info o) ~addr:o.base ~time:t.clock Finding.Leak));
      List.rev_map (fun s -> Hashtbl.find by_site s) !sites_in_order
    end
  in
  let findings = List.sort Finding.compare (List.rev_map of_raw raws @ leak_findings) in
  {
    Report.subject;
    findings;
    accesses = t.accesses;
    allocs = t.allocs;
    frees = t.frees;
  }

let collected t = t.clock

let run ?config ?slack ?(leaks = false) (p : Ormp_vm.Program.t) =
  let t = create ?slack () in
  let b = batch t in
  let result = Ormp_vm.Runner.run_batched ?config p b in
  let site_name i = (Ormp_trace.Instr.info result.table i).name in
  finish ~leaks ~site_name ~subject:p.name t
