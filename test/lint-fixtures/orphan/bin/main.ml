(* Names Ormp_beta.Pool, and Ormp_beta.Ghost only in this comment and in
   the strings below. *)
let pool = Ormp_beta.Pool.create ()
let label = "Ormp_beta.Ghost"
let quoted = {|Ormp_beta.Ghost|}
let sent = Ormp_beta.Wire.send ()
