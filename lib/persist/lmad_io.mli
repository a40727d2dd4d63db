(** LMAD and LEAP-compressor codecs.

    Shared by the LEAP profile format ({!Leap_io}) and the session layer's
    checkpoint snapshots. Two compressor codecs exist on purpose:
    {!write_comp} persists the {e lossy} {!Ormp_lmad.Compressor.parts}
    view (profile files — the open descriptor is finalized), while
    {!write_state} persists the {e exact}
    {!Ormp_lmad.Compressor.state} (snapshots — a restored compressor
    continues the stream byte-for-byte). *)

val write_lmad : Ormp_util.Sexp.Writer.t -> Ormp_lmad.Lmad.t -> unit
val lmad_of_sexp : Ormp_util.Sexp.t -> (Ormp_lmad.Lmad.t, string) result

val write_summary : Ormp_util.Sexp.Writer.t -> Ormp_lmad.Compressor.summary -> unit

val summary_of_sexp :
  Ormp_util.Sexp.t -> (Ormp_lmad.Compressor.summary, string) result
(** Decodes from the body holding the [min]/[max]/... fields. *)

val write_comp : Ormp_util.Sexp.Writer.t -> string -> Ormp_lmad.Compressor.t -> unit
(** [(name (dims ..) (budget ..) ... (lmad ..)* (summary ..)?)] via
    {!Ormp_lmad.Compressor.parts}. *)

val comp_of_sexp :
  string -> Ormp_util.Sexp.t -> (Ormp_lmad.Compressor.t, string) result
(** Finds the [name] field in the given body and rebuilds via
    {!Ormp_lmad.Compressor.of_parts}. *)

val write_state : Ormp_util.Sexp.Writer.t -> string -> Ormp_lmad.Compressor.t -> unit
(** Exact-state form, including the open descriptor and the
    discarded-summary continuation point. *)

val state_of_sexp :
  string -> Ormp_util.Sexp.t -> (Ormp_lmad.Compressor.t, string) result
(** Inverse of {!write_state}; rebuilds via
    {!Ormp_lmad.Compressor.of_state}. *)
