(** Minimal s-expressions, for profile persistence.

    Atoms are written bare when they contain no whitespace, parentheses,
    quotes, backslashes or semicolons, and as double-quoted strings (with
    [\\]-escapes) otherwise. {!Writer} renders them; {!Reader}, its
    mirror, reads them back. No other dependencies — profiles must be
    loadable by the standalone CLI. *)

type t =
  | Atom of string
  | List of t list

val to_string : t -> string
(** Compact rendering (single line). *)

val to_channel : out_channel -> t -> unit
(** Rendering with light indentation, for humane profile files, followed
    by a newline. A list of atoms stays on one line; any other list puts
    each element after its head on a line of its own. *)

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

    A writer owns a private 64 KiB chunk, and keeps no
    state shared across domains: any number of domains may render at
    once, each with its own writer. Writing an atom or an integer
    allocates nothing. *)

module Writer : sig
  type t

  val nested : t -> string -> unit
  (** [nested w name] opens [(name] as a list holding other lists: in the
      indented layout each later element goes on a line of its own. *)

  val list : t -> unit
  (** Opens a list with no name, laid out as {!nested} does. *)

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

(** Tree builders, for the reports, telemetry and flight bundles that
    still build a tree. *)

val atom : string -> t
val int : int -> t
val list : t list -> t
val field : string -> t list -> t
(** [field "name" xs] is [(name xs...)]. *)

(** {2 Reader}

    The {!Writer}'s mirror, and the one way anything in the library reads
    an s-expression: a loader reads its writer's elements in the writer's
    order, each with the reader call that mirrors the writer call that
    wrote it, straight off a string (a file's bytes or a sealed payload).
    It builds no tree and does not recurse, so hostile nesting costs one
    scan to the first unexpected token.

    It accepts only what a writer can write: an integer spelled as
    {!Decimal.write} spells it, an atom bare exactly when the writer
    would leave it bare, escapes in a quoted atom only for a quote, a
    backslash and a newline, and no comments. Blanks between tokens are
    free. A read that meets anything else raises an exception private to
    the reader, which {!run} turns into one [Error] naming the byte offset
    and what was expected there. Reading an integer allocates nothing. *)

module Reader : sig
  type t

  val nested : t -> string -> unit
  (** [nested r name] reads the opening [(name] of a list. *)

  val flat : t -> string -> unit
  (** The same read as {!nested}: the layout is not checked. Both exist so
      that a loader reads like its writer. *)

  val list : t -> unit
  (** Reads the [(] of a list with no name. *)

  val close : t -> unit
  (** Reads the [)] closing the innermost list. *)

  val atom : t -> string
  val int : t -> int

  val prefixed : t -> char -> int
  (** [prefixed r c] reads the atom {!Writer.prefixed} writes, e.g. [R12]. *)

  val int_field : t -> string -> int
  (** Reads [(name n)]. *)

  val at : t -> string -> bool
  (** The next element is the list [(name ...)]. Consumes nothing but
      blanks. *)

  val repeated : t -> string -> (t -> 'a) -> 'a list
  (** [repeated r name read] reads with [read] every element in a row
      that is a list [(name ...)] — the mirror of a writer's [List.iter]. *)

  val optional : t -> string -> (t -> 'a) -> 'a option
  (** [optional r name read] reads [(name ...)] with [read] if it is next
      — the mirror of a writer's [Option.iter]. *)

  val more : t -> bool
  (** The innermost list holds another element: the next token is not [)]
      (nor the end of input). *)

  val next_is : t -> char -> bool
  (** The next token starts with the byte [c]. *)

  val skip : t -> unit
  (** Read one element of any shape. *)

  val skip_rest : t -> unit
  (** Leave the rest of the input unread: {!run} then requires no end. *)

  val fail : t -> string -> 'a
  (** [fail r what] abandons the read with [what] at the current offset:
      how a loader refuses a value its writer could not have written. *)

  val run : string -> (t -> 'a) -> ('a, string) result
  (** [run s read] reads one element of [s] with [read], then requires
      only blanks after it. Every failure of the reader, and every
      {!fail}, is the one [Error]. *)

  val load : string -> (t -> 'a) -> ('a, string) result
  (** {!run} over a file's bytes; an unreadable file is [Error] too. *)
end
