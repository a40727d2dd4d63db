(** Simulated linker layout of statically-allocated objects.

    The paper notes that "the insertion of probes could change the code
    segment size and thus the linker data layout of static data" (§1). This
    module places a program's static objects at concrete addresses, with a
    configurable segment base and inter-object padding so that experiments
    can reproduce the run-to-run drift of static addresses. *)

type entry = { name : string; size : int }
(** One static object (a global variable or table). *)

type placement = { entry : entry; address : int }

val assign : ?base:int -> ?align:int -> ?gap:int -> entry list -> placement list
(** Lay the entries out in order starting at [base] (default 0x0804_8000 —
    a classic data-segment origin), aligning each to [align] (default 8)
    and leaving [gap] padding bytes between objects (default 0). Different
    [base]/[gap] values model a relinked binary. *)

val segment_end : placement list -> int
(** First address past the laid-out data; [base] when empty — callers
    should place the heap above this. *)
