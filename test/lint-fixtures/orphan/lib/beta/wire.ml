(* Named from bin/ as Ormp_beta.Wire. Its [Codec] is a local alias of
   alpha's Used, not beta's Codec. *)
module Codec = Ormp_alpha.Used

let send () = Codec.run ()
