(** Profile invariant verifiers.

    Each profiler's output obeys structural invariants by construction;
    these checkers re-establish them from first principles, so a
    persisted profile (or a profiler bug) that silently violates one is
    caught instead of corrupting downstream analysis. Every verifier
    returns the first violation as a human-readable [Error]. *)

type rules = (int * [ `T of int | `N of int ] list) list
(** The serializable grammar view of {!Ormp_sequitur.Sequitur.rules}. *)

val grammar_rules :
  ?input_length:int -> ?max_duplicate_digrams:int -> rules -> (unit, string) result
(** Sequitur's two defining constraints plus structural sanity, checked
    on the rules view alone (so tests can hand-corrupt a grammar):
    digram uniqueness (overlapping occurrences inside a run of equal
    symbols are exempt, as in the classic algorithm), rule utility
    (every non-start rule referenced at least twice, bodies of length
    >= 2), no duplicate or dangling or cyclic rules, and — when
    [input_length] is given — expansion round-trip length.

    [max_duplicate_digrams] (default 0: strict) tolerates that many
    repeated digrams: our compressor validates digram-index hits lazily,
    so a stale entry can cost a missed match whose duplicate survives in
    the final grammar. *)

val grammar : Ormp_sequitur.Sequitur.t -> (unit, string) result
(** Internal invariants ({!Ormp_sequitur.Sequitur.check_invariants})
    plus {!grammar_rules} against the compressor's own input length,
    with a small size-proportional duplicate-digram tolerance for the
    lazy index (see {!grammar_rules}). *)

val lmad : ?dims:int -> Ormp_lmad.Lmad.t -> (unit, string) result
(** Well-formedness: every level's stride vector matches the start
    point's dimensionality ([dims], when given), every level iterates at
    least twice. *)

val leap_profile : Ormp_leap.Leap.profile -> (unit, string) result
(** Every stream valid (each compressor within its budget and
    well-formed, point and offset streams consistent, time spans ordered
    and disjoint), stream totals sum to [collected], every keyed
    instruction classified as load or store. *)

val objects :
  ?groups:Ormp_core.Omc.group_info list ->
  Ormp_core.Omc.lifetime list ->
  (unit, string) result
(** OMC lifetime invariants: serials dense per group in allocation
    order, allocation times monotone, frees after allocations (and free
    sites only on freed objects), and no two simultaneously-live objects
    overlapping in address space (time-sweep re-insertion). With
    [groups], also group-id density and population accounting. *)

val omc : Ormp_core.Omc.t -> (unit, string) result
(** {!objects} over a live OMC's groups and lifetimes. *)

val whomp_profile : Ormp_whomp.Whomp.profile -> (unit, string) result
(** The four dimension grammars present in paper order, each passing
    {!grammar} with input length equal to [collected], and the
    lifetime/group tables passing {!objects}. *)

val rasg_profile : Ormp_whomp.Rasg.profile -> (unit, string) result
(** The raw-address grammar passing {!grammar} with input length equal
    to [accesses]. *)
