(* Quickstart: write a workload, profile it both ways.

   Run with:  dune exec examples/quickstart.exe

   A workload is ordinary OCaml against the Engine API: allocate objects,
   load and store fields. The engine plays the role of the instrumented
   binary, emitting one probe event per executed memory operation; any
   profiler is just a sink for those events. *)

open Ormp_vm
open Ormp_trace

(* The paper's running example: build a linked list, then walk it reading
   the data field, bumping it, and following the next pointer. *)
let list_walk =
  Program.make ~name:"quickstart" ~description:"a linked-list build and walk" (fun e ->
      (* Static program points: one id per load/store/allocation site. *)
      let site = Engine.instr e ~name:"alloc_node" Instr.Alloc_site in
      let ld_data = Engine.instr e ~name:"ld node->data" Instr.Load in
      let st_data = Engine.instr e ~name:"st node->data" Instr.Store in
      let ld_next = Engine.instr e ~name:"ld node->next" Instr.Load in
      let nodes = Array.init 100 (fun _ -> Engine.alloc e ~site ~type_name:"node" 16) in
      for _sweep = 1 to 20 do
        Array.iter
          (fun n ->
            Engine.load e ~instr:ld_data n 0;
            Engine.store e ~instr:st_data n 0;
            Engine.load e ~instr:ld_next n 8)
          nodes
      done)

let () =
  (* 1. Peek at the object-relative stream: the CDC translates every raw
     access into (instr, group, object, offset, time). *)
  print_endline "First eight object-relative tuples:";
  let shown = ref 0 in
  let cdc =
    Ormp_core.Cdc.create
      ~site_name:(Printf.sprintf "site%d")
      ~on_tuple:(fun tu ->
        if !shown < 8 then begin
          Format.printf "  %a@." Ormp_core.Tuple.pp tu;
          incr shown
        end)
      ()
  in
  ignore (Runner.run_batched list_walk (Ormp_core.Cdc.batch cdc));

  (* 2. WHOMP: the lossless whole-stream profiler. Four Sequitur grammars,
     one per dimension. *)
  let whomp = Ormp_whomp.Whomp.profile list_walk in
  Printf.printf "\nWHOMP collected %d accesses into the OMSG:\n"
    whomp.Ormp_whomp.Whomp.collected;
  List.iter
    (fun (dim, g) ->
      Printf.printf "  %-7s grammar: %4d symbols in %2d rules\n" dim
        (Ormp_sequitur.Sequitur.grammar_size g)
        (Ormp_sequitur.Sequitur.rule_count g))
    whomp.Ormp_whomp.Whomp.dims;
  let rasg = Ormp_whomp.Rasg.profile list_walk in
  Printf.printf "  OMSG %d bytes vs RASG (raw-address baseline) %d bytes\n"
    (Ormp_whomp.Whomp.omsg_bytes whomp)
    (Ormp_whomp.Rasg.bytes rasg);

  (* 3. LEAP: the lossy instruction-indexed profiler, plus its two
     post-processors. *)
  let leap = Ormp_leap.Leap.profile list_walk in
  Printf.printf "\nLEAP profile: %d bytes, %s compression, %s of accesses captured\n"
    (Ormp_leap.Leap.byte_size leap)
    (Ormp_util.Ascii.ratio (Ormp_leap.Leap.compression_ratio leap))
    (Ormp_util.Ascii.percent (Ormp_leap.Leap.accesses_captured leap));
  print_endline "Dependence frequencies (store -> load):";
  List.iter
    (fun d -> Format.printf "  %a@." Ormp_baselines.Dep_types.pp d)
    (Ormp_leap.Mdf.compute leap);
  print_endline "Strongly-strided instructions:";
  List.iter
    (fun (i, s) -> Printf.printf "  instr %d: stride %d\n" i s)
    (Ormp_leap.Strides.strongly_strided leap)
