(** Growable arrays (the stdlib gains [Dynarray] only in 5.2).

    Used for trace recording, where events arrive one at a time and the
    final length is unknown. Amortized O(1) push. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** @raise Invalid_argument when out of bounds. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_array : 'a t -> 'a array
val clear : 'a t -> unit
