(* Named from bin/ as Ormp_beta.Pool. *)
let create () = ref []
