(* The checking layer.

   Three angles: the sanitizer must attribute every planted defect class
   to exactly the fault harness's program points and stay silent on clean
   workloads; the batched sanitizer must agree finding-for-finding with a
   naive per-event reference implementation under random alloc/free/access
   scripts; and the profile invariant verifiers must accept everything the
   real profilers produce while rejecting hand-corrupted grammars,
   malformed LMADs and inconsistent object tables. *)

module San = Ormp_check.Sanitizer
module Finding = Ormp_check.Finding
module Report = Ormp_check.Report
module Verify = Ormp_check.Verify
module Faults = Ormp_workloads.Faults
module Micro = Ormp_workloads.Micro
module Event = Ormp_trace.Event
module Batch = Ormp_trace.Batch
module Lmad = Ormp_lmad.Lmad

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str_opt = Alcotest.(check (option string))
let check_int_opt = Alcotest.(check (option int))

let is_error = function Error _ -> true | Ok () -> false

(* ------------------------------------------------------------------ *)
(* Sanitizer: clean workloads stay clean                               *)
(* ------------------------------------------------------------------ *)

let test_clean_workloads () =
  List.iter
    (fun p ->
      let r = San.run p in
      check_bool (p.Ormp_vm.Program.name ^ " clean") true (Report.clean r);
      check_int (p.Ormp_vm.Program.name ^ " findings") 0 (List.length r.Report.findings))
    [
      Micro.churn ~live:16 ~ops:2000 ();
      Micro.matrix ~n:8 ();
      Micro.linked_list ~nodes:24 ~sweeps:2 ();
      Micro.hash_probe ~buckets:64 ~ops:500 ();
    ]

(* Leak notes never make a run dirty: churn deliberately holds its live
   set until exit, which is a note, not a defect. *)
let test_leak_notes_stay_clean () =
  let r = San.run ~leaks:true (Micro.churn ~live:8 ~ops:400 ()) in
  check_bool "clean despite notes" true (Report.clean r);
  check_bool "notes present" true (Report.notes r > 0);
  List.iter
    (fun f -> check_bool "only leak notes" true (f.Finding.kind = Finding.Leak))
    r.Report.findings

(* ------------------------------------------------------------------ *)
(* Sanitizer: planted defects, object-relative attribution             *)
(* ------------------------------------------------------------------ *)

let only_kind r k =
  match List.filter (fun f -> f.Finding.kind = k) r.Report.findings with
  | [ f ] -> f
  | l ->
    Alcotest.failf "expected exactly one %s finding, got %d" (Finding.kind_name k)
      (List.length l)

let obj_of f =
  match f.Finding.obj with
  | Some o -> o
  | None -> Alcotest.failf "%s finding carries no object" (Finding.kind_name f.Finding.kind)

let test_fault_attribution () =
  let r = San.run ~leaks:true (Faults.inject (Micro.churn ~live:8 ~ops:500 ())) in
  check_bool "dirty" false (Report.clean r);
  check_int "errors" 3 (Report.errors r);
  check_int "warnings" 1 (Report.warnings r);

  let uaf = only_kind r Finding.Use_after_free in
  check_str_opt "uaf program point" (Some "fault:uaf-load") uaf.Finding.instr;
  check_int_opt "uaf offset" (Some 24) uaf.Finding.offset;
  let o = obj_of uaf in
  check_bool "uaf group = alloc site" true (o.Finding.group = "fault:uaf-alloc");
  check_int "uaf serial" 0 o.Finding.serial;
  check_int "uaf size" 64 o.Finding.size;
  check_str_opt "uaf free site" (Some "fault:uaf-free") o.Finding.free_site;
  check_bool "uaf freed before access" true
    (match o.Finding.free_time with
    | Some ft -> ft <= uaf.Finding.first_time
    | None -> false);

  let df = only_kind r Finding.Double_free in
  check_str_opt "double-free program point" (Some "fault:df-refree") df.Finding.instr;
  check_int_opt "double-free offset" (Some 0) df.Finding.offset;
  let o = obj_of df in
  check_bool "double-free group" true (o.Finding.group = "fault:df-alloc");
  check_str_opt "first free site" (Some "fault:df-free") o.Finding.free_site;

  let oob = only_kind r Finding.Out_of_bounds in
  check_str_opt "oob program point" (Some "fault:oob-load") oob.Finding.instr;
  check_int_opt "oob offset" (Some 60) oob.Finding.offset;
  let o = obj_of oob in
  check_bool "oob group" true (o.Finding.group = "fault:oob-alloc");
  check_int "oob object size" 57 o.Finding.size;
  check_bool "oob offset past the end" true (60 >= o.Finding.size);

  let wild = only_kind r Finding.Unmapped_access in
  check_str_opt "wild program point" (Some "fault:wild-load") wild.Finding.instr;
  check_bool "wild has no object" true (wild.Finding.obj = None);
  check_bool "wild is a warning" true (wild.Finding.severity = Finding.Warning);

  let leak =
    match
      List.filter
        (fun f ->
          f.Finding.kind = Finding.Leak
          && match f.Finding.obj with
             | Some o -> o.Finding.group = "fault:leak-alloc"
             | None -> false)
        r.Report.findings
    with
    | [ f ] -> f
    | l -> Alcotest.failf "expected one fault:leak-alloc note, got %d" (List.length l)
  in
  check_int "leak count" 1 leak.Finding.count;
  check_int "leaked object size" 48 (obj_of leak).Finding.size;

  (* Severity-major order: all errors precede the warning, which precedes
     every leak note. *)
  let ranks = List.map (fun f -> Finding.severity_rank f.Finding.severity) r.Report.findings in
  check_bool "findings severity-sorted" true (List.sort compare ranks = ranks)

let test_selective_injection () =
  let r = San.run (Faults.inject ~defects:[ Faults.Oob ] (Micro.matrix ~n:6 ())) in
  check_int "one error" 1 (Report.errors r);
  check_int "no warnings" 0 (Report.warnings r);
  match r.Report.findings with
  | [ f ] -> check_bool "it is the oob" true (f.Finding.kind = Finding.Out_of_bounds)
  | l -> Alcotest.failf "expected exactly one finding, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Property: batched sanitizer = naive per-event reference             *)
(* ------------------------------------------------------------------ *)

(* A deliberately dumb re-implementation of the sanitizer semantics:
   association lists scanned per event, no range index, no MRU cache, no
   batching. Any divergence means the fast path's data structures changed
   behaviour, not just speed. *)
module Reference = struct
  type robj = {
    site : int;
    serial : int;
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
    r_obj : robj option;
    r_time : int;
    mutable r_count : int;
  }

  type t = {
    mutable live : robj list;
    mutable dead : robj list;  (* the graveyard *)
    serials : (int, int) Hashtbl.t;
    dedup : (Finding.kind * int * int * int, raw) Hashtbl.t;
    mutable order : raw list;  (* newest first *)
    slack : int;
    mutable clock : int;
    mutable accesses : int;
    mutable allocs : int;
    mutable frees : int;
  }

  let create ~slack =
    {
      live = [];
      dead = [];
      serials = Hashtbl.create 16;
      dedup = Hashtbl.create 16;
      order = [];
      slack;
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
        { kind; r_instr = instr; r_addr = addr; r_offset = offset; r_obj = obj;
          r_time = t.clock; r_count = 1 }
      in
      Hashtbl.replace t.dedup key r;
      t.order <- r :: t.order

  let overlaps base size o = o.base < base + size && base < o.base + o.size
  let contains addr o = addr >= o.base && addr < o.base + o.size

  let evict_graveyard t ~base ~size =
    t.dead <- List.filter (fun o -> not (overlaps base size o)) t.dead

  let on_alloc t ~site ~addr ~size =
    t.allocs <- t.allocs + 1;
    evict_graveyard t ~base:addr ~size;
    let serial =
      let n = match Hashtbl.find_opt t.serials site with Some n -> n | None -> 0 in
      Hashtbl.replace t.serials site (n + 1);
      n
    in
    match List.filter (overlaps addr size) t.live with
    | [] ->
      t.live <-
        { site; serial; base = addr; size; alloc_time = t.clock;
          free_time = None; free_site = None }
        :: t.live
    | victims ->
      (* Blame the overlapping object with the greatest base, as the
         index's nearest-below probe does. *)
      let victim =
        List.fold_left (fun a o -> if o.base > a.base then o else a)
          (List.hd victims) (List.tl victims)
      in
      record t Finding.Overlapping_alloc ~instr:site ~obj:victim ~addr ()

  let on_free t ?site ~addr () =
    t.frees <- t.frees + 1;
    match List.find_opt (contains addr) t.live with
    | Some o when o.base = addr ->
      o.free_time <- Some t.clock;
      o.free_site <- site;
      t.live <- List.filter (fun x -> x != o) t.live;
      evict_graveyard t ~base:o.base ~size:o.size;
      t.dead <- o :: t.dead
    | Some o -> record t Finding.Invalid_free ?instr:site ~offset:(addr - o.base) ~obj:o ~addr ()
    | None -> (
      match List.find_opt (contains addr) t.dead with
      | Some o when o.base = addr ->
        record t Finding.Double_free ?instr:site ~offset:0 ~obj:o ~addr ()
      | Some o ->
        record t Finding.Invalid_free ?instr:site ~offset:(addr - o.base) ~obj:o ~addr ()
      | None -> record t Finding.Invalid_free ?instr:site ~addr ())

  let on_access t ~instr ~addr =
    t.accesses <- t.accesses + 1;
    if List.exists (contains addr) t.live then t.clock <- t.clock + 1
    else
      match List.find_opt (contains addr) t.dead with
      | Some o ->
        record t Finding.Use_after_free ~instr ~offset:(addr - o.base) ~obj:o ~addr ()
      | None ->
        let below =
          List.filter (fun o -> o.base <= addr) t.live
          |> List.fold_left (fun a o ->
                 match a with Some b when b.base >= o.base -> a | _ -> Some o)
               None
        and above =
          List.filter (fun o -> o.base > addr) t.live
          |> List.fold_left (fun a o ->
                 match a with Some b when b.base <= o.base -> a | _ -> Some o)
               None
        in
        let below =
          match below with
          | Some o when addr >= o.base + o.size && addr - (o.base + o.size) < t.slack ->
            Some (addr - (o.base + o.size), o)
          | _ -> None
        and above =
          match above with
          | Some o when o.base - addr <= t.slack -> Some (o.base - addr, o)
          | _ -> None
        in
        let nearest =
          match (below, above) with
          | Some (d1, o1), Some (d2, o2) -> Some (if d1 <= d2 then o1 else o2)
          | (Some (_, o), None | None, Some (_, o)) -> Some o
          | None, None -> None
        in
        (match nearest with
        | Some o ->
          record t Finding.Out_of_bounds ~instr ~offset:(addr - o.base) ~obj:o ~addr ()
        | None -> record t Finding.Unmapped_access ~instr ~addr ())

  let event t = function
    | Event.Access { instr; addr; size = _; is_store = _ } -> on_access t ~instr ~addr
    | Event.Alloc { site; addr; size; type_name = _ } -> on_alloc t ~site ~addr ~size
    | Event.Free { addr; site } -> on_free t ?site ~addr ()

  let finish ~site_name t =
    let info o =
      let label = site_name o.site in
      { Finding.group = label; serial = o.serial; base = o.base; size = o.size;
        alloc_site = label; alloc_time = o.alloc_time;
        free_site = Option.map site_name o.free_site; free_time = o.free_time }
    in
    let findings =
      List.rev_map
        (fun r ->
          { Finding.kind = r.kind;
            severity = Finding.severity_of_kind r.kind;
            instr = Option.map site_name r.r_instr;
            addr = r.r_addr;
            offset = r.r_offset;
            obj = Option.map info r.r_obj;
            first_time = r.r_time;
            count = r.r_count })
        t.order
    in
    (* Leak aggregation in increasing base order, one note per site, as
       the sanitizer's graveyard-free index walk produces. *)
    let live_sorted = List.sort (fun a b -> compare a.base b.base) t.live in
    let by_site = Hashtbl.create 8 in
    let site_order = ref [] in
    List.iter
      (fun o ->
        match Hashtbl.find_opt by_site o.site with
        | Some f -> Hashtbl.replace by_site o.site { f with Finding.count = f.Finding.count + 1 }
        | None ->
          site_order := o.site :: !site_order;
          Hashtbl.replace by_site o.site
            (Finding.make ~obj:(info o) ~addr:o.base ~time:t.clock Finding.Leak))
      live_sorted;
    let leaks = List.rev_map (fun s -> Hashtbl.find by_site s) !site_order in
    (findings @ leaks, t.accesses, t.allocs, t.frees, t.clock)
end

(* Scripts over six fixed slots 0x100 apart; sizes up to 0x200 so an
   allocation can spill into neighbouring slots (exercising graveyard
   eviction and overlap detection), and access addresses range from below
   the first slot to past the last (exercising all wild classifications). *)
let event_of_op (tag, slot, extra) =
  let base = 0x1000 + (slot * 0x100) in
  match tag with
  | 0 -> Event.Alloc { site = slot; addr = base; size = 1 + extra; type_name = None }
  | 1 -> Event.Free { addr = base; site = Some (10 + slot) }
  | 2 -> Event.Free { addr = base + (extra land 0x3f); site = None }
  | _ ->
    Event.Access
      { instr = 20 + slot; addr = 0xf80 + (slot * 0x100) + extra; size = 8;
        is_store = tag land 1 = 1 }

let canonical f =
  ( Finding.kind_name f.Finding.kind,
    f.Finding.instr,
    f.Finding.addr,
    f.Finding.offset,
    Option.map
      (fun (o : Finding.object_info) ->
        (o.group, o.serial, o.base, o.size, o.alloc_time, o.free_site, o.free_time))
      f.Finding.obj,
    f.Finding.first_time,
    f.Finding.count )

let prop_batched_matches_reference =
  let gen =
    QCheck.(list_of_size (Gen.int_range 0 200)
              (triple (int_range 0 4) (int_range 0 5) (int_range 0 0x1ff)))
  in
  QCheck.Test.make ~name:"batched sanitizer = naive per-event reference" ~count:300 gen
    (fun ops ->
      let events = List.map event_of_op ops in
      let site_name = Printf.sprintf "s%d" in
      (* Fast path: through the batched chunk interface. *)
      let t = San.create () in
      let b = San.batch ~capacity:16 t in
      List.iter (Batch.event b) events;
      Batch.flush b;
      let report = San.finish ~leaks:true ~site_name ~subject:"prop" t in
      (* Slow path: the naive reference, one event at a time. *)
      let r = Reference.create ~slack:San.default_slack in
      List.iter (Reference.event r) events;
      let ref_findings, accesses, allocs, frees, clock = Reference.finish ~site_name r in
      let sort l = List.sort compare (List.map canonical l) in
      sort report.Report.findings = sort ref_findings
      && report.Report.accesses = accesses
      && report.Report.allocs = allocs
      && report.Report.frees = frees
      && San.collected t = clock)

(* ------------------------------------------------------------------ *)
(* Verifiers: grammars                                                 *)
(* ------------------------------------------------------------------ *)

let test_grammar_rules_accepts () =
  (* R0 -> R1 R1 t5, R1 -> t1 t2: both constraints hold. *)
  let rules = [ (0, [ `N 1; `N 1; `T 5 ]); (1, [ `T 1; `T 2 ]) ] in
  (match Grammar_oracle.check ~input_length:5 rules with
  | Ok n -> check_int "no repeated digram" 0 n
  | Error e -> Alcotest.fail e);
  (* Overlapping digram occurrences inside a run of equal symbols are the
     classic algorithm's exemption, not a violation. *)
  match Grammar_oracle.check ~input_length:3 [ (0, [ `T 7; `T 7; `T 7 ]) ] with
  | Ok n -> check_int "run exempt" 0 n
  | Error e -> Alcotest.fail e

let test_grammar_rules_rejects () =
  let rejects name rules ?input_length () =
    check_bool name true (Grammar_oracle.check ?input_length rules <> Ok 0)
  in
  (* Hand-corrupted grammar: digram t1 t2 appears twice. *)
  rejects "repeated digram" [ (0, [ `T 1; `T 2; `T 3; `T 1; `T 2 ]) ] ();
  rejects "under-used rule" [ (0, [ `N 1; `T 9 ]); (1, [ `T 1; `T 2 ]) ] ();
  rejects "single-symbol rule" [ (0, [ `N 1; `N 1 ]); (1, [ `T 1 ]) ] ();
  rejects "dangling rule reference" [ (0, [ `N 9; `N 9 ]) ] ~input_length:2 ();
  rejects "cyclic rules" [ (0, [ `N 1; `N 1 ]); (1, [ `N 0; `N 0 ]) ] ~input_length:4 ();
  rejects "duplicate rule id" [ (0, [ `T 1; `T 2 ]); (0, [ `T 3; `T 4 ]) ] ();
  rejects "missing start rule" [ (1, [ `T 1; `T 2 ]) ] ();
  rejects "expansion length mismatch" [ (0, [ `T 1; `T 2 ]) ] ~input_length:3 ()

(* The oracle counts repeated digrams exactly; Sequitur's overlap rule
   leaves one in this 9-symbol stream (see [Grammar_oracle]), in the
   arena and in the legacy compressor alike. *)
let test_grammar_duplicate_tolerance () =
  check_bool "hand-written repeat counted" true
    (Grammar_oracle.check [ (0, [ `T 1; `T 2; `T 3; `T 1; `T 2 ]) ] = Ok 1);
  let stream = [| 1; 2; 2; 2; 1; 2; 3; 2; 2 |] in
  let g = Ormp_sequitur.Sequitur.create () in
  Ormp_sequitur.Sequitur.push_array g stream;
  let legacy = Sequitur_legacy.create () in
  Sequitur_legacy.push_array legacy stream;
  let rules = [ (0, [ `N 1; `T 2; `T 2; `N 1; `T 3; `T 2; `T 2 ]); (1, [ `T 1; `T 2 ]) ] in
  check_bool "arena grammar" true (Ormp_sequitur.Sequitur.rules g = rules);
  check_bool "legacy grammar" true (Sequitur_legacy.rules legacy = rules);
  check_bool "one repeated digram" true (Grammar_oracle.check ~input_length:9 rules = Ok 1)

let test_grammar_accepts_real_compressor () =
  let g = Ormp_sequitur.Sequitur.create () in
  let input = Array.init 4096 (fun i -> (i * i) mod 17) in
  Ormp_sequitur.Sequitur.push_array g input;
  (match Ormp_sequitur.Sequitur.check_invariants g with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Grammar_oracle.check ~input_length:4096 (Ormp_sequitur.Sequitur.rules g) with
  | Ok n -> check_int "repeated digrams" 0 n
  | Error e -> Alcotest.fail ("rules view: " ^ e)

(* ------------------------------------------------------------------ *)
(* LMADs and object tables                                             *)
(* ------------------------------------------------------------------ *)

(* A descriptor is well-formed by construction: [Lmad.of_levels] refuses
   a level whose stride has another dimensionality than the start. *)
let test_lmad_verify () =
  let d =
    Lmad.of_levels ~start:[| 0; 0 |]
      ~levels:[ { Lmad.stride = [| 0; 8 |]; count = 16 }; { Lmad.stride = [| 1; 0 |]; count = 4 } ]
  in
  check_int "size" 64 (Lmad.size d);
  check_bool "dimension mismatch rejected" true
    (match Lmad.of_levels ~start:[| 0 |] ~levels:d.Lmad.levels with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_int "single point" 1 (Lmad.size (Lmad.make [| 1; 2; 3 |]))

let lifetime ~group ~serial ~base ~size ~alloc_time ?free_time ?free_site () =
  { Ormp_core.Omc.group; serial; base; size; alloc_time; free_time; free_site }

let test_objects_verify () =
  let good =
    [
      lifetime ~group:0 ~serial:0 ~base:0 ~size:16 ~alloc_time:0 ~free_time:5 ();
      lifetime ~group:1 ~serial:0 ~base:64 ~size:8 ~alloc_time:2 ~free_time:4 ~free_site:9 ();
      lifetime ~group:0 ~serial:1 ~base:0 ~size:32 ~alloc_time:6 ();
    ]
  in
  (match Verify.objects good with Ok () -> () | Error e -> Alcotest.fail e);
  check_bool "overlapping live ranges rejected" true
    (is_error
       (Verify.objects
          [
            lifetime ~group:0 ~serial:0 ~base:0 ~size:16 ~alloc_time:0 ();
            lifetime ~group:0 ~serial:1 ~base:8 ~size:16 ~alloc_time:1 ();
          ]));
  check_bool "sparse serials rejected" true
    (is_error
       (Verify.objects
          [
            lifetime ~group:0 ~serial:0 ~base:0 ~size:8 ~alloc_time:0 ();
            lifetime ~group:0 ~serial:2 ~base:32 ~size:8 ~alloc_time:1 ();
          ]));
  check_bool "free before alloc rejected" true
    (is_error
       (Verify.objects [ lifetime ~group:0 ~serial:0 ~base:0 ~size:8 ~alloc_time:5 ~free_time:3 () ]));
  check_bool "free site without free time rejected" true
    (is_error
       (Verify.objects
          [
            {
              Ormp_core.Omc.group = 0; serial = 0; base = 0; size = 8; alloc_time = 0;
              free_time = None; free_site = Some 3;
            };
          ]));
  (* Address reuse across disjoint lifetimes is legal. *)
  match
    Verify.objects
      [
        lifetime ~group:0 ~serial:0 ~base:0 ~size:16 ~alloc_time:0 ~free_time:3 ();
        lifetime ~group:0 ~serial:1 ~base:0 ~size:16 ~alloc_time:3 ();
      ]
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("address reuse: " ^ e)

let test_population_accounting () =
  let groups =
    [ { Ormp_core.Omc.gid = 0; site = 7; label = "a"; population = 2 } ]
  in
  let lifetimes =
    [
      lifetime ~group:0 ~serial:0 ~base:0 ~size:8 ~alloc_time:0 ~free_time:1 ();
      lifetime ~group:0 ~serial:1 ~base:16 ~size:8 ~alloc_time:2 ();
    ]
  in
  (match Verify.objects ~groups lifetimes with Ok () -> () | Error e -> Alcotest.fail e);
  let wrong = [ { Ormp_core.Omc.gid = 0; site = 7; label = "a"; population = 3 } ] in
  check_bool "population mismatch rejected" true
    (is_error (Verify.objects ~groups:wrong lifetimes))

(* ------------------------------------------------------------------ *)
(* Verifiers: whole profiles from the real profilers                   *)
(* ------------------------------------------------------------------ *)

let test_real_profiles_verify () =
  List.iter
    (fun p ->
      (match Verify.whomp_profile (Ormp_whomp.Whomp.profile p) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (p.Ormp_vm.Program.name ^ " whomp: " ^ e));
      (match Verify.leap_profile (Ormp_leap.Leap.profile p) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (p.Ormp_vm.Program.name ^ " leap: " ^ e));
      (* The RASG reader holds the grammar to the access count on file. *)
      let rasg = Ormp_whomp.Rasg.profile p in
      let text accesses =
        Ormp_util.Sexp.Writer.render Ormp_persist.Rasg_io.write
          { rasg with Ormp_whomp.Rasg.accesses }
      in
      let reads accesses =
        Result.is_ok (Ormp_util.Sexp.Reader.run (text accesses) Ormp_persist.Rasg_io.read)
      in
      check_bool "rasg profile loads" true (reads rasg.Ormp_whomp.Rasg.accesses);
      check_bool "rasg access count checked" false (reads (rasg.Ormp_whomp.Rasg.accesses + 1)))
    [ Micro.churn ~live:12 ~ops:1500 (); Micro.matrix ~n:8 (); Micro.array_stride ~elems:256 ~sweeps:3 () ]

let test_omc_verify () =
  let omc = Ormp_core.Omc.create ~site_name:(Printf.sprintf "s%d") () in
  Ormp_core.Omc.on_alloc omc ~time:0 ~site:1 ~addr:1000 ~size:64 ~type_name:None;
  Ormp_core.Omc.on_alloc omc ~time:1 ~site:1 ~addr:2000 ~size:64 ~type_name:None;
  Ormp_core.Omc.on_free omc ~time:2 ~addr:1000;
  Ormp_core.Omc.on_alloc omc ~time:3 ~site:2 ~addr:1000 ~size:32 ~type_name:None;
  match Verify.objects ~groups:(Ormp_core.Omc.groups omc) (Ormp_core.Omc.lifetimes omc) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_check"
    [
      ( "sanitizer",
        [
          tc "clean workloads report nothing" test_clean_workloads;
          tc "leak notes stay clean" test_leak_notes_stay_clean;
          tc "planted defects attributed" test_fault_attribution;
          tc "selective injection" test_selective_injection;
          QCheck_alcotest.to_alcotest prop_batched_matches_reference;
        ] );
      ( "verify-grammar",
        [
          tc "accepts well-formed rules" test_grammar_rules_accepts;
          tc "rejects corrupted rules" test_grammar_rules_rejects;
          tc "duplicate-digram tolerance" test_grammar_duplicate_tolerance;
          tc "accepts real compressor output" test_grammar_accepts_real_compressor;
        ] );
      ( "verify-structures",
        [
          tc "lmad well-formedness" test_lmad_verify;
          tc "object table invariants" test_objects_verify;
          tc "population accounting" test_population_accounting;
          tc "live omc" test_omc_verify;
          tc "real profiles verify" test_real_profiles_verify;
        ] );
    ]
