(** Small numeric helpers shared by the profilers and the report layer. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val median : float list -> float
(** Median (average of the two middle elements for even lengths); 0 on the
    empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], nearest-rank method. *)

val gcd : int -> int -> int
(** Greatest common divisor on absolute values; [gcd 0 0 = 0]. *)

val egcd : int -> int -> int * int * int
(** [egcd a b = (g, x, y)] with [a*x + b*y = g = gcd a b] (g >= 0). *)

val cdiv : int -> int -> int
(** Ceiling division, correct for negative numerators. [cdiv a b] requires
    [b > 0]. *)

val fdiv : int -> int -> int
(** Floor division, correct for negative numerators. [fdiv a b] requires
    [b > 0]. *)
