(* Kept only because the benchmark harness (e2e/wiring.ml) names
   Ormp_server.Pipeline; the stack itself is Ormp_session.Pipeline, which
   client.ml and daemon.ml bind under this name.
   lint:allow-file orphan-module — its caller is e2e/wiring.ml. *)
include Ormp_session.Pipeline
