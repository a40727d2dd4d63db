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

val read :
  Ormp_util.Sexp.Reader.t -> length:int -> exact:bool -> string * Ormp_sequitur.Sequitur.t
(** The mirror of {!write}. The listing must expand to at most [length]
    symbols — measured by {!Ormp_sequitur.Sequitur.of_rules} before
    anything expands — and be the one it rebuilds, and the rebuilt
    grammar must hold exactly [length] symbols when [exact]; the reader
    fails naming the grammar otherwise. *)
