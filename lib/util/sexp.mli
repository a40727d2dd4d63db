(** Minimal s-expressions, for profile persistence.

    Atoms are written bare when they contain no whitespace, parentheses or
    quotes, and as double-quoted strings (with [\\]-escapes) otherwise.
    The reader accepts both forms. No other dependencies — profiles must
    be loadable by the standalone CLI. *)

type t =
  | Atom of string
  | List of t list

val to_string : t -> string
(** Compact rendering (single line). *)

val to_channel : out_channel -> t -> unit
(** Rendering with light indentation, for humane profile files. *)

val of_string : string -> (t, string) result
(** Parse exactly one s-expression (surrounding whitespace allowed). *)

val load : string -> (t, string) result
(** Read one s-expression from a file. *)

val save : string -> t -> unit
(** Write to a file (with indentation). *)

(** Builders and view helpers used by the persistence layers. *)

val atom : string -> t
val int : int -> t
val list : t list -> t
val field : string -> t list -> t
(** [field "name" xs] is [(name xs...)]. *)

val as_int : t -> (int, string) result
val as_atom : t -> (string, string) result
val as_list : t -> (t list, string) result

val assoc : string -> t -> (t list, string) result
(** [assoc "name" (List fields)] finds the [(name ...)] field and returns
    its arguments. *)

(** {2 Decoding kit}

    Result-returning field readers shared by every persisted format
    (profiles, session snapshots, manifests). *)

val collect_results : ('a, string) result list -> ('a list, string) result
(** Every [Ok] value in order, or the first [Error]. *)

val int_list : t list -> (int list, string) result

val int_field : string -> t -> (int, string) result
(** [int_field "name" fields] is the one int argument of the [(name n)]
    field; [Error] when the field is missing or has another arity. *)

val atom_field : string -> t -> (string, string) result
(** Like {!int_field}, for an atom argument. *)

val pick : t list -> string -> (t list -> ('a, string) result) -> ('a list, string) result
(** [pick items name f] decodes every [(name args...)] element of [items]
    with [f args], in order. *)
