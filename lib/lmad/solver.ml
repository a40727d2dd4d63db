open Ormp_util.Stats

(* ------------------------------------------------------------------ *)
(* Exact one-level core: bounded two-variable diophantine system        *)
(* ------------------------------------------------------------------ *)

(* Solutions of the location-equality system, parametrized over the integers:
   - [Free]: every (k1, k2) pair satisfies the system so far;
   - [Line]: k1 = p + q*t, k2 = r + s*t for t in Z, with (q, s) <> (0, 0);
   - [Point]: exactly one (k1, k2);
   - [Empty]: no solutions. *)
type sol =
  | Free
  | Line of { p : int; q : int; r : int; s : int }
  | Point of { k1 : int; k2 : int }
  | Empty

(* Refine [sol] with the equation a*k1 - b*k2 = c. *)
let refine sol (a, b, c) =
  match sol with
  | Empty -> Empty
  | Point { k1; k2 } -> if (a * k1) - (b * k2) = c then sol else Empty
  | Free ->
    if a = 0 && b = 0 then if c = 0 then Free else Empty
    else if a = 0 then
      (* -b*k2 = c: k2 fixed, k1 free. *)
      if c mod b = 0 then Line { p = 0; q = 1; r = -c / b; s = 0 } else Empty
    else if b = 0 then if c mod a = 0 then Line { p = c / a; q = 0; r = 0; s = 1 } else Empty
    else
      let g, x, y = egcd a b in
      if c mod g <> 0 then Empty
      else
        (* a*x + b*y = g, so k1 = x*(c/g), k2 = -y*(c/g) solves a*k1 - b*k2 = c. *)
        let m = c / g in
        Line { p = x * m; q = b / g; r = -y * m; s = a / g }
  | Line { p; q; r; s } ->
    let coef = (a * q) - (b * s) in
    let rhs = c - (a * p) + (b * r) in
    if coef = 0 then if rhs = 0 then sol else Empty
    else if rhs mod coef <> 0 then Empty
    else
      let t = rhs / coef in
      Point { k1 = p + (q * t); k2 = r + (s * t) }

(* Half-open integer intervals with +/- infinity sentinels. *)
let neg_inf = min_int / 4
let pos_inf = max_int / 4

let inter (lo1, hi1) (lo2, hi2) = (max lo1 lo2, min hi1 hi2)

(* t-interval of { t | lo <= off + coef*t <= hi }; coef may be 0. *)
let affine_range ~off ~coef ~lo ~hi =
  if coef = 0 then if off >= lo && off <= hi then (neg_inf, pos_inf) else (0, -1)
  else if coef > 0 then (cdiv (lo - off) coef, fdiv (hi - off) coef)
  else (cdiv (off - hi) (-coef), fdiv (off - lo) (-coef))

(* t-interval of { t | coef*t < bound }; coef may be 0. *)
let strict_upper ~coef ~bound =
  if coef = 0 then if 0 < bound then (neg_inf, pos_inf) else (0, -1)
  else if coef > 0 then (neg_inf, fdiv (bound - 1) coef)
  else ((fdiv (-bound) (-coef)) + 1, pos_inf)

let width (lo, hi) = if hi < lo then 0 else hi - lo + 1

(* A one-level view: start + k*stride, 0 <= k < count. *)
type ap = { base : int array; step : int array; num : int }

(* Count distinct k2 of [b] matching some k1 of [a] over [loc_dims]
   dimensions, optionally requiring strictly earlier time in dimension
   [time_dim]. *)
let count_ap ?time_dim ~loc_dims a b =
  let sol = ref Free in
  for d = 0 to loc_dims - 1 do
    sol := refine !sol (a.step.(d), b.step.(d), b.base.(d) - a.base.(d))
  done;
  let ts1, tst1, ts2, tst2 =
    match time_dim with
    | Some d -> (a.base.(d), a.step.(d), b.base.(d), b.step.(d))
    | None -> (0, 0, 1, 0) (* pseudo-times make t1 < t2 vacuously true *)
  in
  match !sol with
  | Empty -> 0
  | Point { k1; k2 } ->
    if k1 >= 0 && k1 < a.num && k2 >= 0 && k2 < b.num && ts1 + (tst1 * k1) < ts2 + (tst2 * k2)
    then 1
    else 0
  | Line { p; q; r; s } ->
    (* Bounds on k1 and k2 and the temporal-order inequality are all affine
       in the line parameter t; intersect their t-intervals. *)
    let range =
      inter
        (affine_range ~off:p ~coef:q ~lo:0 ~hi:(a.num - 1))
        (affine_range ~off:r ~coef:s ~lo:0 ~hi:(b.num - 1))
    in
    (* t1 < t2: tst1*(p + q*t) + ts1 < tst2*(r + s*t) + ts2. *)
    let coef = (tst1 * q) - (tst2 * s) in
    let bound = ts2 - ts1 + (tst2 * r) - (tst1 * p) in
    let range = inter range (strict_upper ~coef ~bound) in
    if s = 0 then (* one k2 for the whole line *) if width range > 0 then 1 else 0
    else width range
  | Free ->
    (* Same single location for every iteration of both descriptors: a load
       iteration conflicts iff the earliest store beats it. *)
    let earliest_store = ts1 + min 0 (tst1 * (a.num - 1)) in
    let range = inter (0, b.num - 1) (strict_upper ~coef:(-tst2) ~bound:(ts2 - earliest_store)) in
    width range

(* ------------------------------------------------------------------ *)
(* Nested descriptors: projection and bounded enumeration               *)
(* ------------------------------------------------------------------ *)

exception Work_exceeded

let work_budget = 65536

(* Location projection over the first [loc_dims] dimensions: levels that do
   not move the location are dropped; their counts multiply the iteration
   multiplicity of each remaining lattice point. *)
let project ~loc_dims (d : Lmad.t) =
  let moving, still =
    List.partition
      (fun (l : Lmad.level) ->
        let rec nz i = i < loc_dims && (l.stride.(i) <> 0 || nz (i + 1)) in
        nz 0)
      d.levels
  in
  let mult = List.fold_left (fun acc (l : Lmad.level) -> acc * l.count) 1 still in
  (d.start, moving, mult)

let shift start (l : Lmad.level) j =
  Array.init (Array.length start) (fun i -> start.(i) + (j * l.stride.(i)))

(* split levels (innermost first) into (inner levels, outermost level) *)
let split_outer levels =
  match List.rev levels with
  | [] -> None
  | outer :: rev_inner -> Some (List.rev rev_inner, outer)

let ap_of ~dims start levels =
  match levels with
  | [] -> Some { base = start; step = Array.make dims 0; num = 1 }
  | [ (l : Lmad.level) ] -> Some { base = start; step = l.stride; num = l.count }
  | _ -> None

let lattice_size levels = List.fold_left (fun acc (l : Lmad.level) -> acc * l.count) 1 levels

(* Membership of a point in the (start, levels) lattice over [loc_dims]
   dimensions, enumerating outer levels. *)
let rec mem ~work ~loc_dims start levels point =
  decr work;
  if !work <= 0 then raise Work_exceeded;
  match split_outer levels with
  | None ->
    let rec eq i = i >= loc_dims || (start.(i) = point.(i) && eq (i + 1)) in
    eq 0
  | Some (inner, outer) ->
    if inner = [] then
      (* single AP: solve directly *)
      let k = ref None in
      let ok = ref true in
      for i = 0 to loc_dims - 1 do
        let delta = point.(i) - start.(i) in
        if outer.Lmad.stride.(i) = 0 then (if delta <> 0 then ok := false)
        else if delta mod outer.Lmad.stride.(i) <> 0 then ok := false
        else
          let ki = delta / outer.Lmad.stride.(i) in
          match !k with
          | None -> if ki >= 0 && ki < outer.Lmad.count then k := Some ki else ok := false
          | Some k0 -> if ki <> k0 then ok := false
      done;
      !ok && (!k <> None || (* all strides zero: point = start *) true)
    else
      let rec try_j j =
        j < outer.Lmad.count
        && (mem ~work ~loc_dims (shift start outer j) inner point || try_j (j + 1))
      in
      try_j 0

(* Count iterations of the (lstart, llevels) lattice whose location lies in
   the (sstart, slevels) lattice. Exact in the depth <= 1 cases; outer
   levels are enumerated under the work budget. *)
let rec matched ~work ~loc_dims ~dims (sstart, slevels) (lstart, llevels) =
  decr work;
  if !work <= 0 then raise Work_exceeded;
  match (ap_of ~dims sstart slevels, ap_of ~dims lstart llevels) with
  | Some sa, Some la -> count_ap ~loc_dims sa la
  | _, None ->
    (* deep load: enumerate its outermost level; iterations of distinct
       outer indices are distinct, so the sum is exact *)
    let inner, outer = Option.get (split_outer llevels) in
    let acc = ref 0 in
    for j = 0 to outer.Lmad.count - 1 do
      acc := !acc + matched ~work ~loc_dims ~dims (sstart, slevels) (shift lstart outer j, inner)
    done;
    !acc
  | None, Some la ->
    (* deep store, shallow load: test each load iteration for membership in
       the store lattice (exact, union semantics) *)
    if la.num <= 4096 then begin
      let acc = ref 0 in
      for k = 0 to la.num - 1 do
        let point = Array.init dims (fun i -> la.base.(i) + (k * la.step.(i))) in
        if mem ~work ~loc_dims sstart slevels point then incr acc
      done;
      !acc
    end
    else begin
      (* long load: sum per store row, capped (may overcount union) *)
      let inner, outer = Option.get (split_outer slevels) in
      let acc = ref 0 in
      for j = 0 to outer.Lmad.count - 1 do
        acc := !acc + matched ~work ~loc_dims ~dims (shift sstart outer j, inner) (lstart, llevels)
      done;
      min !acc la.num
    end

let check_dims store load =
  let n = Lmad.dims store in
  if Lmad.dims load <> n then invalid_arg "Solver: dimensionality mismatch";
  n

let count_matches ~store ~load =
  let dims = check_dims store load in
  let sstart, snz, _ = project ~loc_dims:dims store in
  let lstart, lnz, lmult = project ~loc_dims:dims load in
  let work = ref work_budget in
  match matched ~work ~loc_dims:dims ~dims (sstart, snz) (lstart, lnz) with
  | n -> n * lmult
  | exception Work_exceeded ->
    (* conservative upper bound *)
    min (Lmad.size load) (lattice_size lnz * lmult)

let count_conflicts ~store ~load =
  let n = check_dims store load in
  if n < 2 then invalid_arg "Solver: need at least one location dim plus time";
  match
    ( ap_of ~dims:n store.Lmad.start store.Lmad.levels,
      ap_of ~dims:n load.Lmad.start load.Lmad.levels )
  with
  | Some sa, Some la -> count_ap ~time_dim:(n - 1) ~loc_dims:(n - 1) sa la
  | _ ->
    (* Deep descriptors: enumerate when small enough, otherwise fall back
       to the time-free spatial count (an upper bound). *)
    if Lmad.size store * Lmad.size load <= work_budget then begin
      let stores = Lmad.points store in
      let loads = Lmad.points load in
      let loc p = Array.sub p 0 (n - 1) in
      List.length
        (List.filter
           (fun lp ->
             List.exists (fun sp -> loc sp = loc lp && sp.(n - 1) < lp.(n - 1)) stores)
           loads)
    end
    else count_matches ~store ~load
