(** Minimal JSON emitter/parser for telemetry exports and the bench log.

    Just enough to write metrics snapshots, the daemon's Stats snapshot,
    Chrome trace-event files and BENCH_ormp.json and to parse them back;
    the repo carries no JSON dependency. Floats render as [%.6g] and
    non-finite ones as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering. Object member order is preserved. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a message with the
    byte offset of the failure. A document nested deeper than 64 levels
    is an [Error] too, so no input can exhaust the stack. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on missing field or non-object. *)

val to_list : t -> t list option
val to_float : t -> float option
(** Accepts both [Float] and [Int]. *)

val to_int : t -> int option
val to_str : t -> string option

(** {2 Decoding}

    A decoder mirrors its encoder: it reads an object's members in the
    order the encoder wrote them, each with the reader of its value, and
    then requires that none is left. The readers below raise on the first
    value the encoder could not have written; {!decode} turns that into
    one [Error] naming the member path. *)

val decode : (t -> 'a) -> t -> ('a, string) result

val fail : string -> 'a
(** Abandon the read with this message: how a decoder refuses a value
    its encoder could not have written. *)

type members
(** The members of an object not yet read. *)

val obj : t -> members

val field : members -> string -> (t -> 'a) -> 'a
(** [field m name read] reads the next member, which must be [name]. *)

val close : members -> unit
(** No member is left. *)

val int : t -> int

val number : t -> float
(** A [Float], an [Int] (what [%.6g] prints for an integral float), or
    [null] (what a non-finite float renders as) read as [nan]. *)

val string : t -> string
val bool : t -> bool
val list : (t -> 'a) -> t -> 'a list

val pairs : (t -> 'a) -> t -> (string * 'a) list
(** Every member of an object, in order, each value read with [read]. *)
