(* Seeded boxed-driver violations — this file is a fixture, never built.
   Outside the VM, drivers feed Batch lanes through Runner.run_batched. *)

let boxed program sink = Ormp_vm.Runner.run program sink (* finding: boxed-driver *)

let also_boxed program sink =
  ignore (Runner.run (* finding: the name ends the code on its line *)
            program sink)

(* the batched driver and the bare run are other identifiers *)
let batched program lanes = Ormp_vm.Runner.run_batched program lanes
let native program = Runner.run_bare program

(* lint:allow boxed-driver — a waived call does not count *)
let waived program sink = Runner.run program sink

(* prose mentioning Runner.run in a comment must not count *)
let label = "Runner.run"
