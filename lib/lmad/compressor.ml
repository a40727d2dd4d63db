type summary = {
  min_v : int array;
  max_v : int array;
  granularity : int array;
  discarded : int;
}

type placement = Extended of int | Opened of int | Discarded

(* An open descriptor under construction.

   [closed] are fully-determined inner levels (innermost first).
   [top_stride]/[top_done] describe the outermost, still-growing level:
   [top_done] complete iterations so far, [partial] points consumed of the
   next iteration. Before the second point arrives, [top_stride] is [None].

   The consumed points, in arrival order, are exactly

     start + (i / inner_size) * top_stride + inner_offset (i mod inner_size)

   for i in [0, inner_size * top_done + partial).

   The o_* cache fields below [o_partial] are derived from the
   authoritative fields above them and rebuilt by [refresh] on every
   rare-path mutation (stride discovery, deepen, state restore). They
   exist so the hot path — "does the next point match?" — is two integer
   compares against [o_expected] plus an in-place mixed-radix advance,
   with no per-point allocation. Invariant (when [o_top_stride] is
   [Some ts]):

     o_expected = open_point (consumed od)
                = o_start + o_top_done * ts + Σ_k o_digits.(k) * stride_k

   where [o_digits] is [o_partial] in the mixed radix given by the closed
   level counts (innermost digit first), [o_counts]/[o_strides] are the
   closed levels flattened into lanes, and [o_inner] is their product. *)
type open_desc = {
  o_start : int array;
  mutable o_closed : Lmad.level list;
  mutable o_top_stride : int array option;
  mutable o_top_done : int;
  mutable o_partial : int;
  (* derived caches — see above *)
  mutable o_inner : int;
  mutable o_counts : int array;
  mutable o_strides : int array;  (* [level][dim], innermost level first *)
  mutable o_digits : int array;
  mutable o_expected : int array;
}

type t = {
  dims : int;
  budget : int;
  max_depth : int;
  mutable closed : Lmad.t list; (* reverse creation order *)
  mutable n_closed : int;  (* List.length closed, cached for the hot path *)
  mutable current : open_desc option;
  mutable total : int;
  mutable discarded_count : int;
  mutable sum_min : int array;
  mutable sum_max : int array;
  mutable sum_gran : int array;
  mutable last_discarded : int array option;
}

let default_budget = 30

let create ?(budget = default_budget) ?(max_depth = 3) ~dims () =
  if dims <= 0 then invalid_arg "Compressor.create: dims must be positive";
  if budget <= 0 then invalid_arg "Compressor.create: budget must be positive";
  if max_depth <= 0 then invalid_arg "Compressor.create: max_depth must be positive";
  {
    dims;
    budget;
    max_depth;
    closed = [];
    n_closed = 0;
    current = None;
    total = 0;
    discarded_count = 0;
    sum_min = [||];
    sum_max = [||];
    sum_gran = [||];
    last_discarded = None;
  }

(* --- vector helpers ------------------------------------------------- *)

let vsub a b = Array.init (Array.length a) (fun i -> a.(i) - b.(i))

let vequal a b =
  let n = Array.length a in
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

(* --- open descriptor ------------------------------------------------ *)

let inner_size od =
  List.fold_left (fun acc (l : Lmad.level) -> acc * l.count) 1 od.o_closed

let inner_offset od idx =
  let p = Array.make (Array.length od.o_start) 0 in
  let rem = ref idx in
  List.iter
    (fun (l : Lmad.level) ->
      let k = !rem mod l.count in
      rem := !rem / l.count;
      for i = 0 to Array.length p - 1 do
        p.(i) <- p.(i) + (k * l.stride.(i))
      done)
    od.o_closed;
  p

let consumed od =
  match od.o_top_stride with
  | None -> 1
  | Some _ -> (inner_size od * od.o_top_done) + od.o_partial

let open_point od i =
  match od.o_top_stride with
  | None -> Array.copy od.o_start
  | Some ts ->
    let isz = inner_size od in
    let off = inner_offset od (i mod isz) in
    Array.init (Array.length od.o_start) (fun d ->
        od.o_start.(d) + (i / isz * ts.(d)) + off.(d))

let open_points od = List.init (consumed od) (open_point od)

(* Rebuild every derived cache from the authoritative fields. Allocates;
   called only on rare-path mutations. *)
let refresh od =
  let dims = Array.length od.o_start in
  let n = List.length od.o_closed in
  let counts = Array.make n 0 in
  let strides = Array.make (n * dims) 0 in
  List.iteri
    (fun k (l : Lmad.level) ->
      counts.(k) <- l.count;
      Array.blit l.stride 0 strides (k * dims) dims)
    od.o_closed;
  od.o_counts <- counts;
  od.o_strides <- strides;
  od.o_inner <- Array.fold_left ( * ) 1 counts;
  let digits = Array.make n 0 in
  let rem = ref od.o_partial in
  for k = 0 to n - 1 do
    digits.(k) <- !rem mod counts.(k);
    rem := !rem / counts.(k)
  done;
  od.o_digits <- digits;
  match od.o_top_stride with
  | None -> ()
  | Some ts ->
    let e =
      if Array.length od.o_expected = dims then od.o_expected
      else Array.make dims 0
    in
    for d = 0 to dims - 1 do
      let acc = ref (od.o_start.(d) + (od.o_top_done * ts.(d))) in
      for k = 0 to n - 1 do
        acc := !acc + (digits.(k) * strides.((k * dims) + d))
      done;
      e.(d) <- !acc
    done;
    od.o_expected <- e

(* The matched point was [o_expected]; consume it, sliding [o_expected]
   to the next point in place. Allocation-free. *)
let advance od =
  od.o_partial <- od.o_partial + 1;
  if od.o_partial = od.o_inner then begin
    (* Inner pattern complete: a full outer iteration closes and the next
       expected point restarts the inner pattern one top-stride later. *)
    od.o_partial <- 0;
    od.o_top_done <- od.o_top_done + 1;
    (match od.o_top_stride with
    | Some ts ->
      let e = od.o_expected in
      let start = od.o_start in
      let td = od.o_top_done in
      for d = 0 to Array.length start - 1 do
        Array.unsafe_set e d (Array.unsafe_get start d + (td * Array.unsafe_get ts d))
      done
    | None -> assert false);
    Array.fill od.o_digits 0 (Array.length od.o_digits) 0
  end
  else begin
    (* Mixed-radix increment of the digit vector, adjusting the expected
       point by the stride of each digit touched. Cannot carry off the
       end: [o_partial] stayed below [o_inner]. *)
    let dims = Array.length od.o_start in
    let digits = od.o_digits in
    let counts = od.o_counts in
    let strides = od.o_strides in
    let e = od.o_expected in
    let k = ref 0 in
    let carry = ref true in
    while !carry do
      let c = Array.unsafe_get counts !k in
      let d0 = Array.unsafe_get digits !k + 1 in
      let base = !k * dims in
      if d0 = c then begin
        Array.unsafe_set digits !k 0;
        for d = 0 to dims - 1 do
          Array.unsafe_set e d
            (Array.unsafe_get e d - ((c - 1) * Array.unsafe_get strides (base + d)))
        done;
        incr k
      end
      else begin
        Array.unsafe_set digits !k d0;
        for d = 0 to dims - 1 do
          Array.unsafe_set e d
            (Array.unsafe_get e d + Array.unsafe_get strides (base + d))
        done;
        carry := false
      end
    done
  end

(* Try to consume [p]; [true] on success. A mismatch on an iteration
   boundary deepens the descriptor (the growing level is frozen as an inner
   level and a new outer level starts) when depth allows. *)
let add_open ~max_depth od p =
  match od.o_top_stride with
  | None ->
    od.o_top_stride <- Some (vsub p od.o_start);
    od.o_top_done <- 2;
    refresh od;
    true
  | Some ts ->
    if vequal p od.o_expected then begin
      advance od;
      true
    end
    else if
      od.o_partial = 0 && od.o_top_done >= 2
      && Array.length od.o_counts + 2 <= max_depth
      && Array.for_all (fun d -> d >= 0) (vsub p od.o_start)
      (* Only deepen on a forward jump or a reset to the origin: loop nests
         move forward. A backward jump to anywhere else is almost always a
         phase-misaligned hypothesis (e.g. the tail of one inner-loop
         instance paired with the head of the next); locking it in poisons
         every later descriptor of the stream. *)
    then begin
      (* Deepen: freeze the growing level, open a new outer level whose
         stride is the jump from the descriptor origin to this point. *)
      od.o_closed <- od.o_closed @ [ { Lmad.stride = ts; count = od.o_top_done } ];
      od.o_top_stride <- Some (vsub p od.o_start);
      od.o_top_done <- 1;
      od.o_partial <- 1;
      (* A fresh outer iteration of a one-point inner pattern completes
         immediately. *)
      if od.o_partial = inner_size od then begin
        od.o_top_done <- 2;
        od.o_partial <- 0
      end;
      refresh od;
      true
    end
    else false

(* The descriptor's complete iterations as an LMAD. When it closes,
   [leftover], the pending partial iteration, is replayed. *)
let finalize od =
  match od.o_top_stride with
  | None -> Lmad.of_levels ~start:od.o_start ~levels:[]
  | Some ts ->
    let levels =
      if od.o_top_done >= 2 then od.o_closed @ [ { Lmad.stride = ts; count = od.o_top_done } ]
      else od.o_closed
    in
    Lmad.of_levels ~start:od.o_start ~levels

let leftover od =
  match od.o_top_stride with
  | None -> []
  | Some _ ->
    let base = consumed od - od.o_partial in
    List.init od.o_partial (fun i -> open_point od (base + i))

(* --- summary of discarded points ------------------------------------ *)

(* [gcd_step g d = Stats.gcd g d], for folding the running granularity [g]
   over the steps [d] between discarded points. It is most often a power
   of two that already divides the step, which the mask test returns with
   no division and no call out of this module. The test also passes
   [g = 0] (with [d = 0] only) and [g = min_int] (with [d] 0 or [min_int]
   only), and [gcd] returns [g] for those too. *)
let[@inline] gcd_step g d =
  if g land (g - 1) = 0 && d land (g - 1) = 0 then g else Ormp_util.Stats.gcd g d

let discard t p =
  if t.discarded_count = 0 then begin
    t.sum_min <- Array.copy p;
    t.sum_max <- Array.copy p;
    t.sum_gran <- Array.make t.dims 0
  end
  else begin
    for i = 0 to t.dims - 1 do
      if p.(i) < t.sum_min.(i) then t.sum_min.(i) <- p.(i);
      if p.(i) > t.sum_max.(i) then t.sum_max.(i) <- p.(i)
    done;
    match t.last_discarded with
    | Some prev ->
      for i = 0 to t.dims - 1 do
        t.sum_gran.(i) <- gcd_step t.sum_gran.(i) (p.(i) - prev.(i))
      done
    | None -> ()
  end;
  t.last_discarded <- Some (Array.copy p);
  t.discarded_count <- t.discarded_count + 1

(* --- the compressor -------------------------------------------------- *)

let new_open p =
  {
    o_start = Array.copy p;
    o_closed = [];
    o_top_stride = None;
    o_top_done = 1;
    o_partial = 0;
    o_inner = 1;
    o_counts = [||];
    o_strides = [||];
    o_digits = [||];
    o_expected = Array.make (Array.length p) 0;
  }

let lmad_count t = t.n_closed + match t.current with None -> 0 | Some _ -> 1

(* Place [p], replaying [leftover] (the closed descriptor's pending partial
   iteration) into a fresh descriptor first. Terminates because every
   recursion permanently closes a descriptor holding at least one point. *)
let rec place t leftover p =
  match t.current with
  | None ->
    if lmad_count t < t.budget then begin
      let od = new_open (match leftover with q :: _ -> q | [] -> p) in
      t.current <- Some od;
      (match leftover with
      | [] -> Opened t.n_closed
      | _ :: rest ->
        (* Replaying a prefix of a previously-consumed pattern never
           mismatches: it re-traces the same discovery decisions. *)
        List.iter (fun q -> assert (add_open ~max_depth:t.max_depth od q)) rest;
        if add_open ~max_depth:t.max_depth od p then Opened t.n_closed
        else close_and_retry t p)
    end
    else begin
      List.iter (discard t) leftover;
      discard t p;
      Discarded
    end
  | Some od ->
    if add_open ~max_depth:t.max_depth od p then Extended t.n_closed
    else close_and_retry t p

and close_and_retry t p =
  match t.current with
  | None -> assert false
  | Some od ->
    let lmad = finalize od and leftover = leftover od in
    t.closed <- lmad :: t.closed;
    t.n_closed <- t.n_closed + 1;
    t.current <- None;
    place t leftover p

let add t p =
  if Array.length p <> t.dims then invalid_arg "Compressor.add: dimension mismatch";
  t.total <- t.total + 1;
  place t [] p

(* --- scalar entry points ---------------------------------------------
   [add] allocates its [placement] result (and scalar callers would also
   box each point into an array); the LEAP hot path feeds millions of 1-
   and 2-dimensional points, so these variants take the point as scalars
   and return the descriptor index the point went to, or -1 if it was
   discarded. Semantics are identical to [add]: the same machinery runs
   on every path that changes descriptor structure; only the steady
   states (extend a matched descriptor, discard over budget) are
   specialized to avoid allocation. *)

let index = function Extended i | Opened i -> i | Discarded -> -1

(* Over-budget steady state, scalar: mutate the summary lanes and the
   last-discarded buffer in place. *)
let discard2 t a b =
  if t.discarded_count = 0 then begin
    t.sum_min <- [| a; b |];
    t.sum_max <- [| a; b |];
    t.sum_gran <- [| 0; 0 |]
  end
  else begin
    if a < t.sum_min.(0) then t.sum_min.(0) <- a;
    if a > t.sum_max.(0) then t.sum_max.(0) <- a;
    if b < t.sum_min.(1) then t.sum_min.(1) <- b;
    if b > t.sum_max.(1) then t.sum_max.(1) <- b;
    match t.last_discarded with
    | Some prev ->
      t.sum_gran.(0) <- gcd_step t.sum_gran.(0) (a - prev.(0));
      t.sum_gran.(1) <- gcd_step t.sum_gran.(1) (b - prev.(1))
    | None -> ()
  end;
  (match t.last_discarded with
  | Some prev ->
    prev.(0) <- a;
    prev.(1) <- b
  | None -> t.last_discarded <- Some [| a; b |]);
  t.discarded_count <- t.discarded_count + 1

let discard1 t a =
  if t.discarded_count = 0 then begin
    t.sum_min <- [| a |];
    t.sum_max <- [| a |];
    t.sum_gran <- [| 0 |]
  end
  else begin
    if a < t.sum_min.(0) then t.sum_min.(0) <- a;
    if a > t.sum_max.(0) then t.sum_max.(0) <- a;
    match t.last_discarded with
    | Some prev -> t.sum_gran.(0) <- gcd_step t.sum_gran.(0) (a - prev.(0))
    | None -> ()
  end;
  (match t.last_discarded with
  | Some prev -> prev.(0) <- a
  | None -> t.last_discarded <- Some [| a |]);
  t.discarded_count <- t.discarded_count + 1

let[@inline never] add2_slow t a b = index (place t [] [| a; b |])

let add2_code t a b =
  if t.dims <> 2 then invalid_arg "Compressor.add2_code: dimension mismatch";
  t.total <- t.total + 1;
  match t.current with
  | Some od -> (
    match od.o_top_stride with
    | Some _ ->
      let e = od.o_expected in
      if Array.unsafe_get e 0 = a && Array.unsafe_get e 1 = b then begin
        advance od;
        t.n_closed
      end
      else add2_slow t a b
    | None -> add2_slow t a b)
  | None ->
    if lmad_count t < t.budget then add2_slow t a b
    else begin
      discard2 t a b;
      -1
    end

let[@inline never] add1_slow t a = index (place t [] [| a |])

let add1_code t a =
  if t.dims <> 1 then invalid_arg "Compressor.add1_code: dimension mismatch";
  t.total <- t.total + 1;
  match t.current with
  | Some od -> (
    match od.o_top_stride with
    | Some _ ->
      if Array.unsafe_get od.o_expected 0 = a then begin
        advance od;
        t.n_closed
      end
      else add1_slow t a
    | None -> add1_slow t a)
  | None ->
    if lmad_count t < t.budget then add1_slow t a
    else begin
      discard1 t a;
      -1
    end

let lmads t =
  let closed = List.rev t.closed in
  match t.current with
  | None -> closed
  | Some od -> closed @ [ finalize od ]

let total t = t.total
let discarded t = t.discarded_count
let captured t = t.total - t.discarded_count
let fully_captured t = t.discarded_count = 0

let summary t =
  if t.discarded_count = 0 then None
  else
    Some
      {
        min_v = Array.copy t.sum_min;
        max_v = Array.copy t.sum_max;
        granularity = Array.copy t.sum_gran;
        discarded = t.discarded_count;
      }

let byte_size t =
  let lmad_bytes = List.fold_left (fun acc d -> acc + Lmad.byte_size d) 0 (lmads t) in
  let summary_bytes =
    match summary t with
    | None -> 0
    | Some s ->
      Ormp_util.Bytesize.of_ints (Array.to_list s.min_v)
      + Ormp_util.Bytesize.of_ints (Array.to_list s.max_v)
      + Ormp_util.Bytesize.of_ints (Array.to_list s.granularity)
      + Ormp_util.Bytesize.varint s.discarded
  in
  lmad_bytes + summary_bytes

let reconstruct t =
  let closed = List.concat_map Lmad.points (List.rev t.closed) in
  match t.current with None -> closed | Some od -> closed @ open_points od

type open_state = {
  s_start : int array;
  s_levels : Lmad.level list;
  s_top_stride : int array option;
  s_top_done : int;
  s_partial : int;
}

type state = {
  s_dims : int;
  s_budget : int;
  s_max_depth : int;
  s_closed : Lmad.t list;
  s_current : open_state option;
  s_total : int;
  s_summary : summary option;
  s_last_discarded : int array option;
}

let state t =
  let open_state od =
    {
      s_start = Array.copy od.o_start;
      s_levels = od.o_closed;
      s_top_stride = Option.map Array.copy od.o_top_stride;
      s_top_done = od.o_top_done;
      s_partial = od.o_partial;
    }
  in
  {
    s_dims = t.dims;
    s_budget = t.budget;
    s_max_depth = t.max_depth;
    s_closed = List.rev t.closed;
    s_current = Option.map open_state t.current;
    s_total = t.total;
    s_summary = summary t;
    s_last_discarded = Option.map Array.copy t.last_discarded;
  }

let of_state s =
  let t = create ~budget:s.s_budget ~max_depth:s.s_max_depth ~dims:s.s_dims () in
  List.iter
    (fun d ->
      if Lmad.dims d <> s.s_dims then invalid_arg "Compressor.of_state: descriptor dims mismatch")
    s.s_closed;
  let open_count = match s.s_current with None -> 0 | Some _ -> 1 in
  if List.length s.s_closed + open_count > s.s_budget then
    invalid_arg "Compressor.of_state: over budget";
  t.closed <- List.rev s.s_closed;
  t.n_closed <- List.length s.s_closed;
  (match s.s_current with
  | None -> ()
  | Some os ->
    if Array.length os.s_start <> s.s_dims then
      invalid_arg "Compressor.of_state: open descriptor dims mismatch";
    (match os.s_top_stride with
    | Some ts when Array.length ts <> s.s_dims ->
      invalid_arg "Compressor.of_state: open stride dims mismatch"
    | _ -> ());
    (* [advance] counts [s_partial] up to the inner size and never past
       it: its mixed-radix digits would carry off the end of their array. *)
    let inner = List.fold_left (fun n (l : Lmad.level) -> n * l.count) 1 os.s_levels in
    if os.s_top_done < 1 || os.s_partial < 0 || os.s_partial >= inner then
      invalid_arg "Compressor.of_state: open descriptor position out of range";
    let od =
      {
        o_start = Array.copy os.s_start;
        o_closed = os.s_levels;
        o_top_stride = Option.map Array.copy os.s_top_stride;
        o_top_done = os.s_top_done;
        o_partial = os.s_partial;
        o_inner = 1;
        o_counts = [||];
        o_strides = [||];
        o_digits = [||];
        o_expected = [||];
      }
    in
    refresh od;
    t.current <- Some od);
  t.total <- s.s_total;
  (match s.s_summary with
  | None -> ()
  | Some sum ->
    if sum.discarded <= 0 then invalid_arg "Compressor.of_state: empty summary";
    if
      Array.length sum.min_v <> s.s_dims
      || Array.length sum.max_v <> s.s_dims
      || Array.length sum.granularity <> s.s_dims
    then invalid_arg "Compressor.of_state: summary dims mismatch";
    for i = 0 to s.s_dims - 1 do
      if sum.min_v.(i) > sum.max_v.(i) then invalid_arg "Compressor.of_state: summary min > max";
      if sum.granularity.(i) < 0 then invalid_arg "Compressor.of_state: negative granularity"
    done;
    t.discarded_count <- sum.discarded;
    t.sum_min <- Array.copy sum.min_v;
    t.sum_max <- Array.copy sum.max_v;
    t.sum_gran <- Array.copy sum.granularity);
  t.last_discarded <- Option.map Array.copy s.s_last_discarded;
  if t.discarded_count > t.total then
    Printf.ksprintf invalid_arg "Compressor.of_state: %d points discarded of %d seen"
      t.discarded_count t.total;
  (* Each descriptor's size is taken out of what was captured level by
     level, so no product or sum of counts wraps past [max_int]. *)
  let over () =
    Printf.ksprintf invalid_arg
      "Compressor.of_state: LMADs describe more points than the %d captured" (captured t)
  in
  ignore
    (List.fold_left
       (fun room d ->
         let size =
           List.fold_left
             (fun n (l : Lmad.level) -> if n > room / l.count then over () else n * l.count)
             1 d.Lmad.levels
         in
         if size > room then over () else room - size)
       (captured t) (lmads t));
  t
