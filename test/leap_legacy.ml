(* Verbatim pre-PR-10 copy of the lib/leap/leap.ml collection core: the
   Hashtbl-based collector, kept as the equivalence oracle for the
   flat-arena rewrite, the same pattern as sequitur_legacy.ml /
   compressor_legacy.ml. Type equations re-export the
   public profile types from [Ormp_leap.Leap] so oracle profiles flow
   through the real Leap_io pipeline. Telemetry calls are dropped
   (counters do not affect profiles); nothing else is modernized. *)

module C = Ormp_lmad.Compressor
module Vec = Ormp_util.Vec

type key = Ormp_leap.Leap.key = { instr : int; group : int }
type span = Ormp_leap.Leap.span = { mutable t_first : int; mutable t_last : int }

type stream = Ormp_leap.Leap.stream = {
  comp : C.t;
  spans : span Vec.t;
  off : C.t;
  mutable dspan : span option;
}

type profile = Ormp_leap.Leap.profile = {
  streams : (key * stream) list;
  store_instrs : (int, bool) Hashtbl.t;
  collected : int;
  wild : int;
  dropped_streams : int;
  dropped_accesses : int;
  elapsed : float;
}

type live = Ormp_leap.Leap.live = {
  lv_streams : (key * stream) list;
  lv_stores : (int * bool) list;
  lv_dropped : key list;
  lv_dropped_accesses : int;
}

let span_at stream idx ~time =
  while Vec.length stream.spans <= idx do
    Vec.push stream.spans { t_first = time; t_last = time }
  done;
  Vec.get stream.spans idx

let record stream ~time point =
  (match C.add stream.comp point with
  | C.Extended idx -> (span_at stream idx ~time).t_last <- time
  | C.Opened idx -> ignore (span_at stream idx ~time)
  | C.Discarded -> (
    match stream.dspan with
    | Some sp -> sp.t_last <- time
    | None -> stream.dspan <- Some { t_first = time; t_last = time }));
  ignore (C.add stream.off [| point.(1) |])

type collector = {
  c_streams : (key, stream) Hashtbl.t;
  c_order : key Vec.t;
  c_store_instrs : (int, bool) Hashtbl.t;
  c_budget : int option;
  c_max_streams : int;
  c_dropped : (key, unit) Hashtbl.t;
  c_dropped_order : key Vec.t;
  mutable c_dropped_accesses : int;
}

let collector ?budget ?(max_streams = 0) ?restore () =
  let c =
    {
      c_streams = Hashtbl.create 256;
      c_order = Vec.create ();
      c_store_instrs = Hashtbl.create 64;
      c_budget = budget;
      c_max_streams = max_streams;
      c_dropped = Hashtbl.create 16;
      c_dropped_order = Vec.create ();
      c_dropped_accesses = 0;
    }
  in
  (match restore with
  | None -> ()
  | Some lv ->
    List.iter
      (fun (k, s) ->
        if Hashtbl.mem c.c_streams k then invalid_arg "Leap.collector: duplicate stream key";
        Hashtbl.replace c.c_streams k s;
        Vec.push c.c_order k)
      lv.lv_streams;
    List.iter (fun (i, st) -> Hashtbl.replace c.c_store_instrs i st) lv.lv_stores;
    List.iter
      (fun k ->
        if not (Hashtbl.mem c.c_dropped k) then begin
          Hashtbl.replace c.c_dropped k ();
          Vec.push c.c_dropped_order k
        end)
      lv.lv_dropped;
    c.c_dropped_accesses <- lv.lv_dropped_accesses);
  c

let collect c (tu : Ormp_core.Tuple.t) =
  Hashtbl.replace c.c_store_instrs tu.instr tu.is_store;
  let key = { instr = tu.instr; group = tu.group } in
  match Hashtbl.find_opt c.c_streams key with
  | Some s -> record s ~time:tu.time [| tu.obj; tu.offset |]
  | None ->
    if c.c_max_streams > 0 && Hashtbl.length c.c_streams >= c.c_max_streams then begin
      if not (Hashtbl.mem c.c_dropped key) then begin
        Hashtbl.replace c.c_dropped key ();
        Vec.push c.c_dropped_order key
      end;
      c.c_dropped_accesses <- c.c_dropped_accesses + 1
    end
    else begin
      let s =
        {
          comp = C.create ?budget:c.c_budget ~dims:2 ();
          spans = Vec.create ();
          off = C.create ?budget:c.c_budget ~dims:1 ();
          dspan = None;
        }
      in
      Hashtbl.replace c.c_streams key s;
      Vec.push c.c_order key;
      record s ~time:tu.time [| tu.obj; tu.offset |]
    end

let stream_count c = Hashtbl.length c.c_streams

let live c =
  {
    lv_streams =
      List.rev (Vec.fold_left (fun acc k -> (k, Hashtbl.find c.c_streams k) :: acc) [] c.c_order);
    lv_stores = List.sort compare (Hashtbl.fold (fun i st acc -> (i, st) :: acc) c.c_store_instrs []);
    lv_dropped = List.rev (Vec.fold_left (fun acc k -> k :: acc) [] c.c_dropped_order);
    lv_dropped_accesses = c.c_dropped_accesses;
  }

let finish c ~collected ~wild ~elapsed =
  {
    streams =
      List.rev (Vec.fold_left (fun acc k -> (k, Hashtbl.find c.c_streams k) :: acc) [] c.c_order);
    store_instrs = c.c_store_instrs;
    collected;
    wild;
    dropped_streams = Hashtbl.length c.c_dropped;
    dropped_accesses = c.c_dropped_accesses;
    elapsed;
  }
