(* Domain-safe metrics registry: monotonic counters, latest-wins gauges,
   and log2-bucketed histograms for latencies/sizes.

   Layout is built for a write-heavy hot path read by an occasional
   snapshot. Registration (rare, at module init) interns a name to a
   small integer id under a mutex; recording (hot) indexes a per-domain
   store obtained through Domain.DLS, so domains never contend on writes.
   A snapshot walks every domain's store and merges: counters sum,
   histograms merge bucket-wise, gauges keep the most recently stamped
   value. Snapshot reads race with writers by design — observability
   tolerates a torn read of an int; correctness-critical state lives
   elsewhere.

   Histograms record in log2 space (one bucket per eighth of a doubling,
   0..2^64) so one layout serves nanoseconds and byte sizes; exact
   count/sum/min/max ride alongside, and quantiles convert back with
   exp2. *)

module H = Ormp_util.Histogram

type kind = Counter | Gauge | Hist

type counter = int
type gauge = int
type histogram = int

(* --- registry (rare path, mutex-protected) ---------------------------- *)

let registry_mutex = Mutex.create ()
let ids : (string, int) Hashtbl.t = Hashtbl.create 64
let defs : (string * kind) Ormp_util.Vec.t = Ormp_util.Vec.create ()

let intern name kind =
  Mutex.lock registry_mutex;
  let id =
    match Hashtbl.find_opt ids name with
    | Some id ->
      let _, k = Ormp_util.Vec.get defs id in
      if k <> kind then begin
        Mutex.unlock registry_mutex;
        invalid_arg (Printf.sprintf "Metrics: %S re-registered with a different kind" name)
      end;
      id
    | None ->
      let id = Ormp_util.Vec.length defs in
      Hashtbl.replace ids name id;
      Ormp_util.Vec.push defs (name, kind);
      id
  in
  Mutex.unlock registry_mutex;
  id

let counter name : counter = intern name Counter
let gauge name : gauge = intern name Gauge
let histogram name : histogram = intern name Hist

(* --- per-domain stores (hot path) ------------------------------------- *)

(* log2 buckets: 8 per doubling over 0..2^64. *)
let log2_buckets = 512
let log2_hi = 64.0

type hist_cell = {
  h : H.t;
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
}

type store = {
  mutable counters : int array;
  mutable gauges : float array;
  mutable gstamps : int array;
  mutable hists : hist_cell option array;
}

let stores_mutex = Mutex.create ()
let stores : store Ormp_util.Vec.t = Ormp_util.Vec.create ()

(* Monotone stamp so a snapshot can pick the newest gauge write across
   domains without any cross-domain ordering on the values themselves.
   lint:allow-file atomic — telemetry-internal (here and the
   fetch_and_add stamp sites below), deliberately outside the traced
   transport seam: the checker runs with telemetry dark. *)
let gauge_clock = Atomic.make 0

let key =
  Domain.DLS.new_key (fun () ->
      let s =
        { counters = [||]; gauges = [||]; gstamps = [||]; hists = [||] }
      in
      Mutex.lock stores_mutex;
      Ormp_util.Vec.push stores s;
      Mutex.unlock stores_mutex;
      s)

let grow_int a n = Array.append a (Array.make (n - Array.length a) 0)
let grow_float a n = Array.append a (Array.make (n - Array.length a) 0.0)

let ensure_counter s id =
  if id >= Array.length s.counters then s.counters <- grow_int s.counters (max 16 (id + 1))

let ensure_gauge s id =
  if id >= Array.length s.gauges then begin
    s.gauges <- grow_float s.gauges (max 16 (id + 1));
    s.gstamps <- grow_int s.gstamps (max 16 (id + 1))
  end

let ensure_hist s id =
  if id >= Array.length s.hists then
    s.hists <- Array.append s.hists (Array.make (max 16 (id + 1) - Array.length s.hists) None);
  match s.hists.(id) with
  | Some c -> c
  | None ->
    let c =
      {
        h = H.create ~lo:0.0 ~hi:log2_hi ~buckets:log2_buckets;
        hcount = 0;
        hsum = 0.0;
        hmin = Float.infinity;
        hmax = Float.neg_infinity;
      }
    in
    s.hists.(id) <- Some c;
    c

let add (id : counter) n =
  let s = Domain.DLS.get key in
  ensure_counter s id;
  s.counters.(id) <- s.counters.(id) + n

let incr id = add id 1

let set (id : gauge) v =
  let s = Domain.DLS.get key in
  ensure_gauge s id;
  s.gauges.(id) <- v;
  s.gstamps.(id) <- 1 + Atomic.fetch_and_add gauge_clock 1

(* High-water gauge: keep the largest sample this domain has recorded
   (first sample always sticks). With a single writing domain the merged
   snapshot value is the true maximum; with several writers the snapshot's
   latest-stamp-wins rule returns the most recent domain's high water. *)
let set_max (id : gauge) v =
  let s = Domain.DLS.get key in
  ensure_gauge s id;
  if s.gstamps.(id) = 0 || v > s.gauges.(id) then begin
    s.gauges.(id) <- v;
    s.gstamps.(id) <- 1 + Atomic.fetch_and_add gauge_clock 1
  end

let observe (id : histogram) v =
  let s = Domain.DLS.get key in
  let c = ensure_hist s id in
  H.add c.h (if v <= 1.0 then 0.0 else Float.log2 v);
  c.hcount <- c.hcount + 1;
  c.hsum <- c.hsum +. v;
  if v < c.hmin then c.hmin <- v;
  if v > c.hmax then c.hmax <- v

(* --- snapshot ---------------------------------------------------------- *)

type hist_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* Quantiles recorded in log2 space convert back with exp2; every
   consumer of the registry's histograms (snapshot below, the daemon's
   per-session latency cells, the CLI renderers) must use this one
   conversion or their figures silently disagree. *)
let exp2_quantile h p = Float.exp2 (H.quantile h p)

let summarize h ~count ~sum ~min ~max =
  {
    count;
    sum;
    min;
    max;
    p50 = exp2_quantile h 0.5;
    p90 = exp2_quantile h 0.9;
    p99 = exp2_quantile h 0.99;
  }

(* --- single-writer histogram cell -------------------------------------- *)

(* The registry above is domain-safe and daemon-global; a select-loop
   server also wants per-session latency histograms that live and die
   with the session. [Local] is the same log2 layout and summary math
   without the DLS/merge machinery — single writer thread only. *)
module Local = struct
  type t = hist_cell

  let create () : t =
    {
      h = H.create ~lo:0.0 ~hi:log2_hi ~buckets:log2_buckets;
      hcount = 0;
      hsum = 0.0;
      hmin = Float.infinity;
      hmax = Float.neg_infinity;
    }

  let observe (c : t) v =
    H.add c.h (if v <= 1.0 then 0.0 else Float.log2 v);
    c.hcount <- c.hcount + 1;
    c.hsum <- c.hsum +. v;
    if v < c.hmin then c.hmin <- v;
    if v > c.hmax then c.hmax <- v

  let count (c : t) = c.hcount

  let summary (c : t) =
    if c.hcount = 0 then None
    else Some (summarize c.h ~count:c.hcount ~sum:c.hsum ~min:c.hmin ~max:c.hmax)
end

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_hists : (string * hist_summary) list;
}

let empty = { snap_counters = []; snap_gauges = []; snap_hists = [] }

let snapshot () =
  Mutex.lock registry_mutex;
  let defs = Ormp_util.Vec.to_array defs in
  Mutex.unlock registry_mutex;
  Mutex.lock stores_mutex;
  let stores = Ormp_util.Vec.to_array stores in
  Mutex.unlock stores_mutex;
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  Array.iteri
    (fun id (name, kind) ->
      match kind with
      | Counter ->
        let v =
          Array.fold_left
            (fun acc s -> if id < Array.length s.counters then acc + s.counters.(id) else acc)
            0 stores
        in
        if v <> 0 then counters := (name, v) :: !counters
      | Gauge ->
        let v = ref 0.0 and stamp = ref 0 in
        Array.iter
          (fun s ->
            if id < Array.length s.gauges && s.gstamps.(id) > !stamp then begin
              stamp := s.gstamps.(id);
              v := s.gauges.(id)
            end)
          stores;
        if !stamp > 0 then gauges := (name, !v) :: !gauges
      | Hist ->
        let merged = ref None in
        Array.iter
          (fun s ->
            if id < Array.length s.hists then
              match s.hists.(id) with
              | None -> ()
              | Some c -> (
                match !merged with
                | None ->
                  merged :=
                    Some
                      {
                        h = H.merge c.h (H.create ~lo:0.0 ~hi:log2_hi ~buckets:log2_buckets);
                        hcount = c.hcount;
                        hsum = c.hsum;
                        hmin = c.hmin;
                        hmax = c.hmax;
                      }
                | Some m ->
                  merged :=
                    Some
                      {
                        h = H.merge m.h c.h;
                        hcount = m.hcount + c.hcount;
                        hsum = m.hsum +. c.hsum;
                        hmin = Float.min m.hmin c.hmin;
                        hmax = Float.max m.hmax c.hmax;
                      }))
          stores;
        match !merged with
        | None -> ()
        | Some m when m.hcount = 0 -> ()
        | Some m ->
          hists :=
            (name, summarize m.h ~count:m.hcount ~sum:m.hsum ~min:m.hmin ~max:m.hmax)
            :: !hists)
    defs;
  {
    snap_counters = List.rev !counters;
    snap_gauges = List.rev !gauges;
    snap_hists = List.rev !hists;
  }

(* Zero every store in place. Metric ids stay interned — handles held by
   instrumentation sites remain valid. Used by benches between runs and by
   tests; concurrent writers will race harmlessly. *)
let reset () =
  Mutex.lock stores_mutex;
  let stores = Ormp_util.Vec.to_array stores in
  Mutex.unlock stores_mutex;
  Array.iter
    (fun s ->
      Array.fill s.counters 0 (Array.length s.counters) 0;
      Array.fill s.gauges 0 (Array.length s.gauges) 0.0;
      Array.fill s.gstamps 0 (Array.length s.gstamps) 0;
      s.hists <- Array.make (Array.length s.hists) None)
    stores

(* --- export ------------------------------------------------------------ *)

module J = Ormp_util.Json

(* The registry's one encoding: `metrics.json` and the registry block of
   the daemon's Stats snapshot. [read] is its mirror. *)
let to_json snap =
  J.Obj
    [
      ("counters", J.Obj (List.map (fun (n, v) -> (n, J.Int v)) snap.snap_counters));
      ("gauges", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) snap.snap_gauges));
      ( "histograms",
        J.Obj
          (List.map
             (fun (n, h) ->
               ( n,
                 J.Obj
                   [
                     ("count", J.Int h.count);
                     ("sum", J.Float h.sum);
                     ("min", J.Float h.min);
                     ("max", J.Float h.max);
                     ("p50", J.Float h.p50);
                     ("p90", J.Float h.p90);
                     ("p99", J.Float h.p99);
                   ] ))
             snap.snap_hists) );
    ]

let read_hist j =
  let m = J.obj j in
  let count = J.field m "count" J.int in
  let sum = J.field m "sum" J.number in
  let min = J.field m "min" J.number in
  let max = J.field m "max" J.number in
  let p50 = J.field m "p50" J.number in
  let p90 = J.field m "p90" J.number in
  let p99 = J.field m "p99" J.number in
  J.close m;
  { count; sum; min; max; p50; p90; p99 }

(* Raises as the {!Ormp_util.Json} readers do; run it under
   [Json.decode], or embedded in a larger decoder. *)
let read j =
  let m = J.obj j in
  let snap_counters = J.field m "counters" (J.pairs J.int) in
  let snap_gauges = J.field m "gauges" (J.pairs J.number) in
  let snap_hists = J.field m "histograms" (J.pairs read_hist) in
  J.close m;
  { snap_counters; snap_gauges; snap_hists }

let of_json = J.decode read

(* The one rendering of a snapshot, shared by `ormp stats` and `ormp
   top`: a "registry" banner, then a table per kind that has entries,
   counters as integers, every float as %.6g. Empty for an empty
   snapshot. *)
let render snap =
  let module A = Ormp_util.Ascii in
  let f = Printf.sprintf "%.6g" in
  let table header rows = if rows = [] then "" else A.table ~header ~rows ^ "\n" in
  match
    table [ "counter"; "value" ]
      (List.map (fun (n, v) -> [ n; string_of_int v ]) snap.snap_counters)
    ^ table [ "gauge"; "value" ] (List.map (fun (n, v) -> [ n; f v ]) snap.snap_gauges)
    ^ table
        [ "histogram"; "count"; "sum"; "min"; "max"; "p50"; "p90"; "p99" ]
        (List.map
           (fun (n, h) ->
             [ n; string_of_int h.count; f h.sum; f h.min; f h.max; f h.p50; f h.p90; f h.p99 ])
           snap.snap_hists)
  with
  | "" -> ""
  | tables -> A.section "registry" ^ "\n" ^ tables
