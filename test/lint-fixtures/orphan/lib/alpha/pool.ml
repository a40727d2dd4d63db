(* finding: orphan-module. bin/ names a Pool, but through Ormp_beta. *)
let create () = ref 0
