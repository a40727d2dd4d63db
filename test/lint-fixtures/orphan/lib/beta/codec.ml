(* finding: orphan-module. Wire, in the same library, says [Codec] only
   through its own [module Codec = ...] binding, which is alpha's Used. *)
let encode x = x
