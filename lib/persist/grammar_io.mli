(** Single Sequitur grammars on disk.

    The grammar codec shared by the WHOMP profile format, the RASG
    baseline format and the session layer (checkpoint snapshots and
    sealed-epoch spill files). A grammar is serialized as its
    {!Ormp_sequitur.Sequitur.rules} listing, written straight from the
    live grammar, and rebuilt live with
    {!Ormp_sequitur.Sequitur.of_rules}: Sequitur is deterministic, so the
    rebuilt compressor is exactly the one that was saved — including its
    response to further pushes. *)

val write : Ormp_util.Sexp.Writer.t -> string * Ormp_sequitur.Sequitur.t -> unit
(** [(grammar (dim <name>) (rule <id> <sym>...)...)], streamed from
    {!Ormp_sequitur.Sequitur.visit_rules}: nothing is allocated per
    symbol. *)

val of_sexp :
  Ormp_util.Sexp.t list -> (string * Ormp_sequitur.Sequitur.t, string) result
(** Decode from the field list following the [grammar] atom; rejects
    malformed symbols and cyclic or dangling rule references. *)

val save : string -> string * Ormp_sequitur.Sequitur.t -> unit

val load : string -> (string * Ormp_sequitur.Sequitur.t, string) result
(** Never raises on a corrupt file. *)
