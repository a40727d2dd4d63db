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
(** Rendering with light indentation, for humane profile files, followed
    by a newline. A list of atoms stays on one line; any other list puts
    each element after its head on a line of its own. *)

val of_string : string -> (t, string) result
(** Parse exactly one s-expression (surrounding whitespace allowed). *)

val load : string -> (t, string) result
(** Read one s-expression from a file. *)

val save : string -> t -> unit
(** Write to a file (with indentation). The file is closed even when a
    write fails; the [Sys_error] is re-raised. *)

(** {2 Streaming writer}

    Every persisted format renders through one writer, straight into a
    file or a buffer, with no tree in between: {!to_string},
    {!to_channel} and {!save} are walks of a tree over it, so the quoting
    and layout rules above exist once. An encoder opens each list with
    {!Writer.nested} or {!Writer.flat}, declaring the layout the tree
    renderer would read off the list's contents.

    A writer owns a private 64 KiB chunk and a digit buffer, and keeps no
    state shared across domains: any number of domains may render at
    once, each with its own writer. Writing an atom or an integer
    allocates nothing. *)

module Writer : sig
  type t

  val nested : t -> string -> unit
  (** [nested w name] opens [(name] as a list holding other lists: in the
      indented layout each later element goes on a line of its own. *)

  val flat : t -> string -> unit
  (** [flat w name] opens [(name] as a list of atoms, on one line in
      either layout. A list opened inside a flat one is rendered flat
      too. *)

  val close : t -> unit
  (** Close the innermost open list.
      @raise Invalid_argument when none is open. *)

  val atom : t -> string -> unit
  (** One atom, double-quoted with [\\]-escapes when it needs to be. *)

  val int : t -> int -> unit
  (** The decimal atom [string_of_int n], rendered without allocating. *)

  val prefixed : t -> char -> int -> unit
  (** [prefixed w c n] is the atom [c] followed by the digits of [n], e.g.
      [R12]; [c] must be a character that needs no quoting. *)

  val int_field : t -> string -> int -> unit
  (** [int_field w name n] is the flat list [(name n)]. *)

  val to_file : string -> (t -> 'a -> unit) -> 'a -> unit
  (** [to_file path write x] renders [write w x] into [path] in the
      indented layout of {!Sexp.to_channel}, then a newline. The channel
      is closed on any exception, which is re-raised.
      @raise Sys_error on I/O failure.
      @raise Invalid_argument if [write] leaves a list open. *)

  val render : (t -> 'a -> unit) -> 'a -> string
  (** The compact layout of {!Sexp.to_string}, as a string.
      @raise Invalid_argument if [write] leaves a list open. *)
end

(** Tree builders, for the small files that still build a tree (manifest,
    reports, telemetry), and the view helpers every reader decodes with. *)

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
