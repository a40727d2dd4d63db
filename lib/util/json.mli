(** Minimal JSON emitter/parser for telemetry exports and the bench log.

    Just enough to write metrics snapshots, Chrome trace-event files and
    BENCH_ormp.json and to parse them back (validation, the perf guard);
    the repo carries no JSON dependency. Non-finite floats render as
    [null]. *)

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
    byte offset of the failure. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on missing field or non-object. *)

val to_list : t -> t list option
val to_float : t -> float option
(** Accepts both [Float] and [Int]. *)

val to_int : t -> int option
val to_str : t -> string option
