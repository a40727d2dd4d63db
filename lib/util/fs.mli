(** File-system helpers shared by every layer that writes a directory. *)

val mkdirs : string -> unit
(** [mkdirs dir] creates [dir] and any missing parent, like [mkdir -p];
    a directory that already exists, or that another process creates
    meanwhile, is fine.
    @raise Sys_error when a directory cannot be created. *)
