(* Kept only because the benchmark harness (e2e/wiring.ml) names
   Ormp_server.Pipeline; the stack itself is Ormp_session.Pipeline. *)
include Ormp_session.Pipeline
