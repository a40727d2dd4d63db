(** LEAP profile persistence.

    Figure 4's pipeline ends with "compressed profile → post-processor":
    collection and post-processing are separate runs in practice, so
    profiles must survive on disk. The format is a versioned s-expression;
    {!load} rebuilds a {!Ormp_leap.Leap.profile} on which {!Ormp_leap.Mdf}
    and {!Ormp_leap.Strides} run exactly as on a fresh one (the open
    descriptor of each stream is finalized at save time). *)

val save : string -> Ormp_leap.Leap.profile -> unit
(** @raise Sys_error on I/O failure. *)

val load : string -> (Ormp_leap.Leap.profile, string) result

val to_sexp : Ormp_leap.Leap.profile -> Ormp_util.Sexp.t
val of_sexp : Ormp_util.Sexp.t -> (Ormp_leap.Leap.profile, string) result

(** {1 Stream parts shared with session snapshots} *)

val spans_to_sexp : Ormp_leap.Leap.stream -> Ormp_util.Sexp.t list
(** The stream's [(spans a b ...)] field, plus [(dspan a b)] when set. *)

val spans_of_sexp :
  Ormp_util.Sexp.t ->
  (Ormp_leap.Leap.span Ormp_util.Vec.t * Ormp_leap.Leap.span option, string) result
(** Reads them back from a stream's field list. *)
