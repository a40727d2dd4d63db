(* Named from bin/ as Ormp_alpha.Used. *)
let run () = Helper.twice 21
