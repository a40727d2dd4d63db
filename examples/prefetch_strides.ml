(* Stride-based prefetching from the LEAP profile (§4.2.2).

   Run with:  dune exec examples/prefetch_strides.exe

   A stride prefetcher wants the instructions "which access memory with
   one particular stride most of the time". The example runs two SPEC-like
   workloads, asks LEAP for its strongly-strided instructions, and prints
   the prefetch directives a compiler pass would emit — checking each
   against the lossless stride profiler. *)

let cache_line = 64

let analyse name =
  let entry = Ormp_workloads.Registry.find name in
  let program = Ormp_workloads.Registry.program entry in
  let leap_batch, leap_fin =
    Ormp_leap.Leap.sink_batched ~site_name:(Printf.sprintf "site%d") ()
  in
  let wu = Ormp_baselines.Lossless_stride.create () in
  let result =
    Ormp_vm.Runner.run_batched program
      (Ormp_trace.Batch.fanout [ leap_batch; Ormp_baselines.Lossless_stride.batch wu ])
  in
  let table = result.Ormp_vm.Runner.table in
  let leap = leap_fin ~elapsed:result.Ormp_vm.Runner.elapsed in
  let iname i = (Ormp_trace.Instr.info table i).Ormp_trace.Instr.name in
  let real = Ormp_baselines.Lossless_stride.strongly_strided wu in
  Printf.printf "=== %s ===\n" name;
  let found = Ormp_leap.Strides.strongly_strided leap in
  List.iter
    (fun (instr, stride) ->
      let confirmed = List.mem_assoc instr real in
      if stride = 0 then
        Printf.printf "  %-24s stride 0 (re-references one location; no prefetch) %s\n"
          (iname instr)
          (if confirmed then "" else "[not confirmed by lossless]")
      else
        (* Prefetch far enough ahead to cover a line. *)
        let distance = max 1 (cache_line / abs stride) in
        Printf.printf "  %-24s stride %+d -> prefetch %d iterations ahead %s\n" (iname instr)
          stride distance
          (if confirmed then "" else "[not confirmed by lossless]"))
    found;
  let found_ids = List.map fst found in
  let missed = List.filter (fun (i, _) -> not (List.mem i found_ids)) real in
  if missed <> [] then begin
    Printf.printf "  missed (lossless found, LEAP did not):\n";
    List.iter (fun (i, s) -> Printf.printf "    %-24s stride %+d\n" (iname i) s) missed
  end;
  print_newline ()

let () = List.iter analyse [ "164.gzip-like"; "256.bzip2-like"; "181.mcf-like" ]
