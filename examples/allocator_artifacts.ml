(* The paper's Figures 1 and 2, live: allocator and layout artifacts hide
   access regularity in raw addresses, and object-relative translation
   removes them.

   Run with:  dune exec examples/allocator_artifacts.exe

   The same linked-list walk runs under five memory configurations
   (different heap allocators, shifted data segments). Raw address streams
   differ in every run; the object-relative stream — and therefore the
   WHOMP profile — is bit-for-bit identical. *)

open Ormp_vm

let program = Ormp_workloads.Micro.linked_list ~nodes:12 ~sweeps:2 ()

let raw_prefix config =
  let addrs = ref [] in
  let lanes =
    Ormp_trace.Batch.create
      ~on_chunk:(fun c ->
        for i = 0 to c.len - 1 do
          if List.length !addrs < 6 then addrs := c.addr.(i) :: !addrs
        done)
      ~on_event:ignore ()
  in
  ignore (Runner.run_batched ~config program lanes);
  List.rev !addrs

let or_prefix config =
  let tuples = ref [] in
  let cdc =
    Ormp_core.Cdc.create
      ~site_name:(Printf.sprintf "s%d")
      ~on_tuple:(fun tu -> if List.length !tuples < 6 then tuples := tu :: !tuples)
      ()
  in
  ignore (Runner.run_batched ~config program (Ormp_core.Cdc.batch cdc));
  List.rev !tuples

let () =
  let configs = Config.variants Config.default in
  print_endline "Raw addresses of the first six accesses, per configuration:";
  List.iter
    (fun c ->
      Printf.printf "  %-22s" (Config.name c);
      List.iter (fun a -> Printf.printf " %#010x" a) (raw_prefix c);
      print_newline ())
    configs;

  print_endline "\nObject-relative view of the same six accesses, per configuration:";
  List.iter
    (fun c ->
      Printf.printf "  %-22s" (Config.name c);
      List.iter (fun tu -> Format.printf " %a" Ormp_core.Tuple.pp tu) (or_prefix c);
      print_newline ())
    configs;

  (* The full profiles agree too: the OMSG is invariant, the raw grammar
     is not even the same size. *)
  print_endline "\nProfile sizes per configuration (bytes):";
  Printf.printf "  %-22s %12s %12s\n" "config" "RASG (raw)" "OMSG (obj-rel)";
  List.iter
    (fun c ->
      let rasg = Ormp_whomp.Rasg.profile ~config:c program in
      let whomp = Ormp_whomp.Whomp.profile ~config:c program in
      Printf.printf "  %-22s %12d %12d\n" (Config.name c) (Ormp_whomp.Rasg.bytes rasg)
        (Ormp_whomp.Whomp.omsg_bytes whomp))
    configs;
  print_endline
    "\nEvery OMSG column entry is identical: object-relativity has factored the\n\
     allocator and linker artifacts out of the profile."
