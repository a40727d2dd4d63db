(** LMAD and LEAP-compressor codecs.

    Shared by the LEAP profile format ({!Leap_io}) and the session layer's
    checkpoint snapshots. Two compressor codecs exist on purpose:
    {!write_comp} persists the {e lossy} profile view (the open
    descriptor finalized into {!Ormp_lmad.Compressor.lmads}), while
    {!write_state} persists the {e exact}
    {!Ormp_lmad.Compressor.state} (snapshots — a restored compressor
    continues the stream byte-for-byte). Each [read_*] is the mirror of
    its [write_*]. *)

val read_ints : Ormp_util.Sexp.Reader.t -> string -> int array
(** Reads [(name a b ...)]. *)

val write_comp : Ormp_util.Sexp.Writer.t -> string -> Ormp_lmad.Compressor.t -> unit
(** [(name (dims ..) (budget ..) (max-depth ..) (total ..) (discarded ..)
    (lmad ..)* (summary ..)?)], from the compressor's
    {!Ormp_lmad.Compressor.state}, {!Ormp_lmad.Compressor.lmads} and
    {!Ormp_lmad.Compressor.discarded}. *)

val read_comp : Ormp_util.Sexp.Reader.t -> string -> Ormp_lmad.Compressor.t
(** Rebuilds through {!Ormp_lmad.Compressor.of_state} with no open
    descriptor and no last discarded point; [(discarded N)] must match
    the summary's count. *)

val write_state : Ormp_util.Sexp.Writer.t -> string -> Ormp_lmad.Compressor.t -> unit
(** Exact-state form, including the open descriptor and the
    discarded-summary continuation point. *)

val read_state : Ormp_util.Sexp.Reader.t -> string -> Ormp_lmad.Compressor.t
(** Rebuilds via {!Ormp_lmad.Compressor.of_state}. *)
