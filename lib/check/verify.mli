(** Profile invariants that no constructor guarantees.

    Each value a profile holds is checked once, where it is built:
    {!Ormp_sequitur.Sequitur.of_rules} proves a loaded grammar is exactly
    what Sequitur builds from its expansion, {!Ormp_lmad.Compressor.create}
    and {!Ormp_lmad.Compressor.of_state} refuse an inconsistent
    compressor, and {!Ormp_lmad.Lmad.of_levels} a malformed descriptor.
    What is left is how the parts of a profile agree with each other: the
    checks below. The profile readers in [Ormp_persist] end by running
    them, so a profile that loads has passed them. Every verifier returns
    the first violation as a human-readable [Error]. *)

val objects :
  ?groups:Ormp_core.Omc.group_info list ->
  Ormp_core.Omc.lifetime list ->
  (unit, string) result
(** OMC lifetime invariants: serials dense per group in allocation
    order, allocation times monotone, frees after allocations (and free
    sites only on freed objects), and no two simultaneously-live objects
    overlapping in address space (time-sweep re-insertion). With
    [groups], also group-id density and population accounting. *)

val leap_streams :
  (Ormp_leap.Leap.key * Ormp_leap.Leap.stream) list -> (unit, string) result
(** One stream per (instruction, group); each stream's point compressor
    2-dimensional and its offset compressor 1-dimensional with equal
    totals, at most one time span per LMAD, spans internally ordered and
    disjoint in creation order, and a discard span present iff accesses
    were discarded. *)

val leap_profile : Ormp_leap.Leap.profile -> (unit, string) result
(** {!leap_streams}, stream totals plus dropped accesses equal to
    [collected], and every stream's instruction classified as a load or
    a store. *)

val whomp_profile : Ormp_whomp.Whomp.profile -> (unit, string) result
(** The four dimension grammars in paper order, each holding [collected]
    symbols, and the lifetime/group tables passing {!objects}. *)
