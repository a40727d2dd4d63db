(* Seeded journal-owner violations — this file is a fixture, never built.
   Only the session (session/session.ml) may write or recover a journal. *)

let private_recovery path =
  match Ormp_session.Journal.recover path with (* finding: journal-owner *)
  | Error e -> failwith e
  | Ok r ->
    let w = Journal.create ~resume:(Array.length r.events, r.r_crc) path in (* finding *)
    Journal.flush w;
    w

(* prose mentioning Journal.append in a comment must not count *)
let label = "Journal.append"
