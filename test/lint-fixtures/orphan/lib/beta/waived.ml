(* lint:allow-file orphan-module — a waiver names the caller it serves:
   here, the lint's own fixture test. *)
let kept = ()
