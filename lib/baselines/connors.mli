(** Re-implementation of Connors' windowed memory-dependence profiler
    (§4.2.1's practical competitor).

    The profiler keeps "addresses recorded in a small history window" of
    the most recent store executions; each load is checked against that
    window only. Dependences older than the window are invisible, so the
    profiler "often misses some of the dependences" while "not
    overestimating the frequency for any dependent pairs" — the one-sided
    error distribution of Figure 7. The paper sizes the window so running
    time is comparable to LEAP's; {!default_window} matches that spirit. *)

type t

val default_window : int
(** 4096 recent stores. The paper chose "a window size such that it
    exhibits a running time similar to LEAP"; window size barely affects
    our implementation's speed (the window is seq-number checked, not
    scanned), so the default is instead sized to make Connors competitive
    on short- and medium-range dependences, which is the regime the
    paper's comparison operates in. The window ablation sweeps it. *)

val create : ?window:int -> unit -> t

val batch : t -> Ormp_trace.Batch.t
(** Every load and store of a chunk; object events are ignored. *)

val deps : t -> Dep_types.dep list
(** Same shape and semantics as {!Lossless_dep.deps}, but computed from
    window hits only. *)

val profile : ?config:Ormp_vm.Config.t -> ?window:int -> Ormp_vm.Program.t -> t
