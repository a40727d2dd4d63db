(** WHOMP (OMSG) profile persistence.

    The four dimension grammars are written as their rules — the compact
    form is exactly the profile. Loading replays each grammar's expansion
    through a fresh Sequitur compressor; the algorithm is deterministic,
    so the reloaded grammars are structurally identical to the saved ones
    (checked by the round-trip tests). Auxiliary group/lifetime output is
    saved alongside. *)

val save : string -> Ormp_whomp.Whomp.profile -> unit
(** Streams {!write} into [path]; the file is closed even when a write
    fails.
    @raise Sys_error on I/O failure. *)

val load : string -> (Ormp_whomp.Whomp.profile, string) result

val write : Ormp_util.Sexp.Writer.t -> Ormp_whomp.Whomp.profile -> unit
(** The profile as one s-expression; {!save} streams it into the file. *)

val of_sexp : Ormp_util.Sexp.t -> (Ormp_whomp.Whomp.profile, string) result

(** {1 Object records shared with session snapshots} *)

val write_lifetime : Ormp_util.Sexp.Writer.t -> Ormp_core.Omc.lifetime -> unit
(** [(object group serial base size alloc-time free-time free-site)],
    with [-1] for a time or site that is not set. *)

val lifetime_of_sexp : Ormp_util.Sexp.t list -> (Ormp_core.Omc.lifetime, string) result
(** Decodes the arguments of an [object] record. *)
