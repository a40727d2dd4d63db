(* Seeded quoted-string fixture — this file is a fixture, never built.
   A double quote inside a quoted string opens no string, so the boxed
   call after it is still seen. *)

let t = {foo|"|foo}
let y = Runner.run (* finding: boxed-driver *)

(* A quoted string in a comment hides a comment closer: {|*)|} Runner.run *)
let z = {id|Runner.run spans
  lines, past a bare |} Runner.run |id}

(* Nor does a char literal in a comment: '"' *)
let w = Runner.run (* finding: boxed-driver *)
