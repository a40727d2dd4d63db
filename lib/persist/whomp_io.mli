(** WHOMP (OMSG) profile persistence.

    The four dimension grammars are written as their rules — the compact
    form is exactly the profile. Loading replays each grammar's expansion
    through a fresh Sequitur compressor; the algorithm is deterministic,
    so the reloaded grammars are structurally identical to the saved ones
    (checked by the round-trip tests). Auxiliary group/lifetime output is
    saved alongside. *)

val save : string -> Ormp_whomp.Whomp.profile -> unit
val load : string -> (Ormp_whomp.Whomp.profile, string) result

val to_sexp : Ormp_whomp.Whomp.profile -> Ormp_util.Sexp.t
val of_sexp : Ormp_util.Sexp.t -> (Ormp_whomp.Whomp.profile, string) result

(** {1 Object records shared with session snapshots} *)

val lifetime_to_sexp : Ormp_core.Omc.lifetime -> Ormp_util.Sexp.t
(** [(object group serial base size alloc-time free-time free-site)],
    with [-1] for a time or site that is not set. *)

val lifetime_of_sexp : Ormp_util.Sexp.t list -> (Ormp_core.Omc.lifetime, string) result
(** Decodes the arguments of an [object] record. *)
