(* finding: orphan-module. bin/ spells Ormp_beta.Ghost only in a comment
   and in strings. *)
let boo = ()
