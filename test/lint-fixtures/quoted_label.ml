(* A quoted string is a string: the call it spells is never code. *)
let s = {|Runner.run|}
