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
(** {!read} over the file; never raises on a corrupt one. *)

val write : Ormp_util.Sexp.Writer.t -> Ormp_whomp.Whomp.profile -> unit
(** The profile as one s-expression; {!save} streams it into the file. *)

val read : Ormp_util.Sexp.Reader.t -> Ormp_whomp.Whomp.profile
(** The mirror of {!write}: its fields in its order, each dimension
    grammar expanding to exactly [collected] symbols. [elapsed] reads
    back as 0. *)

(** {1 Object records shared with session snapshots} *)

val write_lifetime : Ormp_util.Sexp.Writer.t -> Ormp_core.Omc.lifetime -> unit
(** [(object group serial base size alloc-time free-time free-site)],
    with [-1] for a time or site that is not set. *)

val read_lifetime : Ormp_util.Sexp.Reader.t -> Ormp_core.Omc.lifetime
