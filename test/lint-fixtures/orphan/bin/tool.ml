(* Names Ormp_alpha, but no module of the same name as another library's. *)
let answer = Ormp_alpha.Used.run ()
