(* Named only inside its own library, by Used. *)
let twice x = 2 * x
