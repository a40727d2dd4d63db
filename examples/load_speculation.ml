(* Speculative load reordering from the LEAP dependence profile (§4).

   Run with:  dune exec examples/load_speculation.exe

   "Speculative load reordering ... is beneficial only if the load is
   independent of the store or is dependent with a low frequency, because
   of the relatively high recovery overhead."

   The example profiles a SPEC-like workload with LEAP, then classifies
   each load against each earlier store: loads whose worst dependence
   frequency is below the recovery threshold are speculation candidates.
   The lossless profiler replays the same trace to check how the decisions
   would have fared. *)

module Dt = Ormp_baselines.Dep_types

(* With a ~1% misspeculation recovery cost model, hoisting pays below a
   few percent dependence frequency. *)
let threshold = 0.05

let () =
  let entry = Ormp_workloads.Registry.find "186.crafty-like" in
  let program = Ormp_workloads.Registry.program entry in

  (* One run feeds both LEAP and the (slow, exact) lossless profiler. *)
  let leap_batch, leap_fin =
    Ormp_leap.Leap.sink_batched ~site_name:(Printf.sprintf "site%d") ()
  in
  let truth = Ormp_baselines.Lossless_dep.create () in
  let result =
    Ormp_vm.Runner.run_batched program
      (Ormp_trace.Batch.fanout [ leap_batch; Ormp_baselines.Lossless_dep.batch truth ])
  in
  let table = result.Ormp_vm.Runner.table in
  let leap = leap_fin ~elapsed:result.Ormp_vm.Runner.elapsed in
  let name i = (Ormp_trace.Instr.info table i).Ormp_trace.Instr.name in

  let est = Ormp_leap.Mdf.compute leap in
  let exact = Ormp_baselines.Lossless_dep.deps truth in

  Printf.printf "%-28s %-12s %-18s %s\n" "load" "worst MDF" "decision" "exact worst MDF";
  List.iter
    (fun load ->
      let worst deps =
        List.fold_left
          (fun acc store -> max acc (Dt.find deps ~store ~load))
          0.0
          (Ormp_leap.Leap.stores leap)
      in
      let est_worst = worst est in
      let exact_worst = worst exact in
      let decision = if est_worst < threshold then "SPECULATE" else "keep ordered" in
      let verdict =
        if (est_worst < threshold) = (exact_worst < threshold) then "(right)"
        else "(WRONG)"
      in
      Printf.printf "%-28s %-12s %-18s %s %s\n" (name load)
        (Ormp_util.Ascii.percent est_worst)
        decision
        (Ormp_util.Ascii.percent exact_worst)
        verdict)
    (Ormp_leap.Leap.loads leap)
