(** Omega-test-like intersection of LMADs (§4.2.1).

    The memory-dependence post-processor must count, for a store LMAD and a
    load LMAD over the same (instruction, group) space, how many load
    iterations touch a location some store iteration also touches. The
    paper speeds this up "using some omega-test-like linear programming
    algorithms"; this module does the same:

    - levels whose stride is zero in every location dimension do not move
      the location and are projected out (they only contribute iteration
      multiplicity);
    - the remaining one-level-versus-one-level case — by far the common
      one — is solved exactly in closed form with extended-gcd reasoning
      over the bounded two-variable diophantine system;
    - deeper descriptors are handled by enumerating outer levels within a
      bounded work budget, falling back to a conservative upper bound
      (min of the two iteration counts) if the budget is exceeded.

    All counts are exact except in the explicitly-bounded deep cases. *)

val count_matches : store:Lmad.t -> load:Lmad.t -> int
(** Number of load iterations whose point coincides with some store
    iteration's point; every dimension is location.
    @raise Invalid_argument on dimensionality mismatch. *)

val count_conflicts : store:Lmad.t -> load:Lmad.t -> int
(** Read-after-write count with layout [\[| location dims... ; time |\]]:
    load iterations whose location some store iteration wrote {e at an
    earlier time}. Exact closed form when both descriptors have at most
    one level; deeper descriptors are enumerated within the work budget
    (falling back to the time-free {!count_matches}).
    @raise Invalid_argument on layout mismatch. *)
