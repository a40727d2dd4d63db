(** Durable file primitives for the session layer.

    Everything a checkpoint touches goes through two disciplines: writes
    are atomic (temp file + rename, so a crash never leaves a partial
    file under the real name) and payloads are sealed with a CRC-32
    trailer (so a corrupt file is detected, not trusted). The optional
    {!Ormp_workloads.Faults.Io.t} threads the injected-fault plan through
    every write for the durability tests. *)

val write_atomic :
  ?io:Ormp_workloads.Faults.Io.t -> path:string -> string -> unit
(** Write [content] to [path ^ ".tmp"], then rename over [path]. On any
    exception (injected or real) the temp file is removed and the real
    path is untouched. *)

val seal : string -> string
(** [payload ^ "\n;crc <decimal CRC-32 of payload>\n"]. *)

val unseal : string -> (string, string) result
(** Recover and verify a sealed payload: the trailer must be exactly the
    one {!seal} writes. *)

val save_sealed :
  ?io:Ormp_workloads.Faults.Io.t -> string -> (Ormp_util.Sexp.Writer.t -> 'a -> unit) -> 'a -> unit
(** [save_sealed path write x]: [write w x] rendered compact into a
    buffer, sealed, and written atomically — one write, so the fault plan
    sees one write per file. *)

val load_sealed : string -> (Ormp_util.Sexp.Reader.t -> 'a) -> ('a, string) result
(** [load_sealed path read]: read + unseal + {!Ormp_util.Sexp.Reader.run}
    [read] over the payload; [Error] on missing, torn, or corrupt files. *)
