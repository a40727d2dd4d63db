(** RASG baseline profiles on disk.

    One Sequitur grammar over the raw address stream plus the access
    count, via {!Grammar_io}. The session layer writes this next to the
    WHOMP and LEAP profiles so byte-identical resume can be checked for
    all three outputs; [elapsed] is deliberately not serialized (wall
    time differs between byte-identical runs). *)

val write : Ormp_util.Sexp.Writer.t -> Ormp_whomp.Rasg.profile -> unit

val save : string -> Ormp_whomp.Rasg.profile -> unit
(** Streams {!write} into [path]; the file is closed even when a write
    fails.
    @raise Sys_error on I/O failure. *)

val read : Ormp_util.Sexp.Reader.t -> Ormp_whomp.Rasg.profile
(** The mirror of {!write}; the grammar expands to exactly [accesses]
    symbols. *)

val load : string -> (Ormp_whomp.Rasg.profile, string) result
(** [elapsed] reads back as 0. Never raises on a corrupt file. *)
