(* The pre-arena record-graph Sequitur implementation, preserved verbatim
   (minus telemetry) as the reference oracle for the equivalence suite in
   [test_sequitur.ml]: the flat-arena rewrite in [lib/sequitur] must
   produce byte-identical grammars — rule ids included — for any input,
   and this module is what "identical" is measured against. Not linked
   into the library. *)

type symbol = {
  mutable kind : kind;
  mutable prev : symbol;
  mutable next : symbol;
  mutable dead : bool;
}

and kind =
  | Guard of rule
  | Term of int
  | Nonterm of rule

and rule = {
  id : int;
  mutable guard : symbol;
  mutable refcount : int;
}

type t = {
  start : rule;
  digrams : (int, symbol) Hashtbl.t; (* packed digram key -> first occurrence *)
  live_rules : (int, rule) Hashtbl.t;
  mutable next_rule_id : int;
  mutable input_len : int;
}

let is_guard s = match s.kind with Guard _ -> true | _ -> false

let code_of s =
  match s.kind with
  | Term v -> v lsl 1
  | Nonterm r -> (r.id lsl 1) lor 1
  | Guard _ -> invalid_arg "Sequitur_legacy.code_of: guard"

let pack hi lo = (hi lsl 31) lxor lo

let digram_key s = pack (code_of s) (code_of s.next)

(* Symbol identity is the raw value and the kind, not [code_of], which
   drops a terminal's bit 62. *)
let same_sym a b =
  match (a.kind, b.kind) with
  | Term v, Term w -> v = w
  | Nonterm r, Nonterm q -> r.id = q.id
  | _ -> false

let same_digram a b = same_sym a b && same_sym a.next b.next

let make_rule id =
  let rec rule = { id; guard = g; refcount = 0 }
  and g = { kind = Guard rule; prev = g; next = g; dead = false } in
  rule

let create ?(size_hint = 0) () =
  let start = make_rule 0 in
  let t =
    {
      start;
      digrams = Hashtbl.create (max 4096 size_hint);
      live_rules = Hashtbl.create 64;
      next_rule_id = 1;
      input_len = 0;
    }
  in
  Hashtbl.replace t.live_rules 0 start;
  t

let first r = r.guard.next
let last r = r.guard.prev

let reuse r = r.refcount <- r.refcount + 1

let kill_rule t r = if Hashtbl.mem t.live_rules r.id then Hashtbl.remove t.live_rules r.id

let deuse t r =
  r.refcount <- r.refcount - 1;
  if r.refcount = 0 && r.id <> 0 then kill_rule t r

let delete_digram t s =
  if (not (is_guard s)) && not (is_guard s.next) then
    let key = digram_key s in
    match Hashtbl.find_opt t.digrams key with
    | Some m when m == s -> Hashtbl.remove t.digrams key
    | _ -> ()

let join t left right =
  if not (is_guard left) then delete_digram t left;
  left.next <- right;
  right.prev <- left

let insert_after t q ns =
  join t ns q.next;
  join t q ns

let delete_symbol t s =
  delete_digram t s;
  join t s.prev s.next;
  s.dead <- true;
  match s.kind with Nonterm r -> deuse t r | _ -> ()

let fresh kind =
  let rec s = { kind; prev = s; next = s; dead = false } in
  s

let append_copy t r proto =
  let ns = fresh proto.kind in
  (match proto.kind with Nonterm r2 -> reuse r2 | _ -> ());
  insert_after t (last r) ns

let rec check t s =
  if is_guard s || is_guard s.next then false
  else
    let key = digram_key s in
    match Hashtbl.find_opt t.digrams key with
    | None ->
      Hashtbl.replace t.digrams key s;
      false
    | Some m when m == s -> false
    | Some m when m.dead || m.next.dead || is_guard m.next || not (same_digram m s) ->
      Hashtbl.replace t.digrams key s;
      false
    | Some m when m.next == s || s.next == m -> false
    | Some m ->
      process_match t s m;
      true

and process_match t s m =
  let r =
    if is_guard m.prev && is_guard m.next.next then begin
      let r = match m.prev.kind with Guard r -> r | _ -> assert false in
      substitute t s r;
      r
    end
    else begin
      let r = make_rule t.next_rule_id in
      t.next_rule_id <- t.next_rule_id + 1;
      Hashtbl.replace t.live_rules r.id r;
      append_copy t r s;
      append_copy t r s.next;
      substitute t m r;
      substitute t s r;
      Hashtbl.replace t.digrams (digram_key (first r)) (first r);
      r
    end
  in
  let underused s = match s.kind with Nonterm r2 -> r2.refcount = 1 | _ -> false in
  let f = first r in
  if underused f then expand_symbol t f;
  let l = last r in
  if underused l then expand_symbol t l

and substitute t s r =
  let q = s.prev in
  delete_symbol t s.next;
  delete_symbol t s;
  let ns = fresh (Nonterm r) in
  reuse r;
  insert_after t q ns;
  if not (check t q) then ignore (check t ns)

and expand_symbol t s =
  match s.kind with
  | Nonterm r ->
    let left = s.prev and right = s.next in
    let f = first r and l = last r in
    delete_digram t s;
    s.dead <- true;
    join t left f;
    join t l right;
    deuse t r;
    kill_rule t r;
    if (not (is_guard l)) && not (is_guard right) then
      Hashtbl.replace t.digrams (pack (code_of l) (code_of right)) l;
    if (not (is_guard left)) && not (is_guard f) then
      Hashtbl.replace t.digrams (pack (code_of left) (code_of f)) left
  | _ -> invalid_arg "Sequitur_legacy.expand_symbol: not a non-terminal"

let push t v =
  let s = fresh (Term v) in
  insert_after t (last t.start) s;
  t.input_len <- t.input_len + 1;
  ignore (check t s.prev)

let push_array t a = Array.iter (push t) a

let input_length t = t.input_len

let iter_rhs r f =
  let rec go s = if not (is_guard s) then (f s; go s.next) in
  go (first r)

let fold_rules t init f =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.live_rules [] in
  let ids = List.sort compare ids in
  List.fold_left (fun acc id -> f acc (Hashtbl.find t.live_rules id)) init ids

let grammar_size t =
  fold_rules t 0 (fun acc r ->
      let n = ref 0 in
      iter_rhs r (fun _ -> incr n);
      acc + !n)

let rule_count t = Hashtbl.length t.live_rules

let byte_size t =
  fold_rules t 0 (fun acc r ->
      let n = ref 1 (* rule separator *) in
      iter_rhs r (fun s -> n := !n + Ormp_util.Bytesize.varint (code_of s));
      acc + !n)

let expand t =
  let out = ref [] in
  let n = ref 0 in
  let rec go r =
    iter_rhs r (fun s ->
        match s.kind with
        | Term v ->
          out := v :: !out;
          incr n
        | Nonterm r2 -> go r2
        | Guard _ -> assert false)
  in
  go t.start;
  let a = Array.make !n 0 in
  List.iteri (fun i v -> a.(!n - 1 - i) <- v) !out;
  a

let rules t =
  List.rev
    (fold_rules t [] (fun acc r ->
         let rhs = ref [] in
         iter_rhs r (fun s ->
             rhs :=
               (match s.kind with
               | Term v -> `T v
               | Nonterm r2 -> `N r2.id
               | Guard _ -> assert false)
               :: !rhs);
         (r.id, List.rev !rhs) :: acc))
