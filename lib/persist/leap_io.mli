(** LEAP profile persistence.

    Figure 4's pipeline ends with "compressed profile → post-processor":
    collection and post-processing are separate runs in practice, so
    profiles must survive on disk. The format is a versioned s-expression;
    {!load} rebuilds a {!Ormp_leap.Leap.profile} on which {!Ormp_leap.Mdf}
    and {!Ormp_leap.Strides} run exactly as on a fresh one (the open
    descriptor of each stream is finalized at save time). *)

val save : string -> Ormp_leap.Leap.profile -> unit
(** Streams {!write} into [path]; the file is closed even when a write
    fails.
    @raise Sys_error on I/O failure. *)

val load : string -> (Ormp_leap.Leap.profile, string) result

val write : Ormp_util.Sexp.Writer.t -> Ormp_leap.Leap.profile -> unit

val read : Ormp_util.Sexp.Reader.t -> Ormp_leap.Leap.profile
(** The mirror of {!write}: its fields in its order. [elapsed] reads back
    as 0. {!load} is [read] over a file, and never raises on a corrupt
    one. *)

(** {1 Parts shared with session snapshots}

    A stream is written with a compressor codec: {!Lmad_io.write_comp}
    in profiles, {!Lmad_io.write_state} in snapshots. *)

val write_stream :
  (Ormp_util.Sexp.Writer.t -> string -> Ormp_lmad.Compressor.t -> unit) ->
  Ormp_util.Sexp.Writer.t ->
  Ormp_leap.Leap.key * Ormp_leap.Leap.stream ->
  unit
(** [(stream (instr i) (group g) (comp ..) (off ..) (spans a b ...)
    (dspan a b)?)]. *)

val read_stream :
  (Ormp_util.Sexp.Reader.t -> string -> Ormp_lmad.Compressor.t) ->
  Ormp_util.Sexp.Reader.t ->
  Ormp_leap.Leap.key * Ormp_leap.Leap.stream

val write_stores : Ormp_util.Sexp.Writer.t -> (int * bool) list -> unit
(** [(stores ...) (instrs ...)] from the instructions in ascending order,
    each with its store flag. *)

val read_stores : Ormp_util.Sexp.Reader.t -> (int * bool) list
