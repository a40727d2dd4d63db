(** Checkpoint snapshots: the exact profiling state at one stream position.

    A snapshot captures everything needed to continue a run as if it never
    stopped: the CDC/OMC translation state, the four WHOMP dimension
    grammars, the RASG baseline grammar, and the LEAP collector's live
    stream states ({!Ormp_lmad.Compressor.state}, open descriptors
    included). Grammars serialize as their rule listings —
    {!Ormp_sequitur.Sequitur.of_rules} rebuilds a live grammar that
    continues byte-for-byte.

    Files are written atomically and sealed with a CRC-32 trailer
    ({!Storage}); a snapshot that fails its seal is skipped in favour of
    an older one. *)

type epoch = {
  ep_index : int;  (** rotation ordinal, from 1 *)
  ep_dim : string;  (** grammar dimension ([instr] ... [rasg]) *)
  ep_file : string;  (** file name inside the session directory *)
  ep_from : int;  (** raw-event position where the epoch began *)
  ep_to : int;  (** position where it was sealed *)
  ep_symbols : int;  (** grammar size at sealing *)
}
(** A sealed grammar epoch spilled to disk by the memory watchdog. *)

type degradation = {
  dg_position : int;  (** raw-event position when it happened *)
  dg_kind : string;  (** e.g. [rotate], [journal-off], [checkpoint-failed] *)
  dg_detail : string;
}
(** One graceful-degradation event, reported in the session outcome. *)

type t = {
  position : int;  (** raw events consumed when taken *)
  checkpoint : int;  (** checkpoint ordinal *)
  journal_crc : int;  (** journal CRC over events [0, position) *)
  rotations : int;
  epochs : epoch list;
  degradations : degradation list;
  cdc : Ormp_core.Cdc.state;
  whomp :
    Ormp_sequitur.Sequitur.t
    * Ormp_sequitur.Sequitur.t
    * Ormp_sequitur.Sequitur.t
    * Ormp_sequitur.Sequitur.t;  (** instr, group, object, offset *)
  rasg : Ormp_sequitur.Sequitur.t;
  leap : Ormp_leap.Leap.live;
}

val write_epoch : Ormp_util.Sexp.Writer.t -> epoch -> unit
val write_degradation : Ormp_util.Sexp.Writer.t -> degradation -> unit

val write : Ormp_util.Sexp.Writer.t -> t -> unit
(** The snapshot payload, through the same grammar, object and LMAD
    encoders as the profile files; {!save} renders it into a buffer and
    seals it. *)

val read : Ormp_util.Sexp.Reader.t -> t
(** The mirror of {!write}; every grammar expands to at most [position]
    symbols, the object table passes {!Ormp_check.Verify.objects} against
    the group table (each group key once), and the live streams pass
    {!Ormp_check.Verify.leap_streams}, so a payload edited and resealed
    is refused like a bad seal instead of failing the restore. *)

val save : ?io:Ormp_workloads.Faults.Io.t -> string -> t -> unit
(** Atomic + sealed; may raise the planned injected fault. *)

val load : string -> (t, string) result
(** Never raises: torn, truncated, or structurally corrupt snapshots come
    back as [Error]. *)

(** {1 Headers} *)

type header = { h_position : int; h_checkpoint : int; h_journal_crc : int }
(** The leading fields: what a recovery checks against the journal, and
    what [session status] prints. *)

val header : t -> header

val load_header : string -> (header, string) result
(** The seal checked and the leading fields read, without decoding the
    body: a snapshot whose seal holds is trusted here, though {!load}
    may still refuse its body. *)
