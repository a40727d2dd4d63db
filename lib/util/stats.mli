(** Small numeric helpers shared by the profilers and the report layer. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val median : float list -> float
(** Median (average of the two middle elements for even lengths); 0 on the
    empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], nearest-rank method. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0 on the empty list. *)

val gcd : int -> int -> int
(** Greatest common divisor on absolute values; [gcd 0 0 = 0]. *)

val gcd_step : int -> int -> int
(** [gcd_step g d = gcd g d], for folding a running gcd [g] over steps
    [d]: a positive power of two [g] that divides [d] is returned after a
    mask test, with no division. *)

val egcd : int -> int -> int * int * int
(** [egcd a b = (g, x, y)] with [a*x + b*y = g = gcd a b] (g >= 0). *)

val cdiv : int -> int -> int
(** Ceiling division, correct for negative numerators. [cdiv a b] requires
    [b > 0]. *)

val fdiv : int -> int -> int
(** Floor division, correct for negative numerators. [fdiv a b] requires
    [b > 0]. *)
