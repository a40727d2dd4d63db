(** Experiment drivers: one function per figure/table of the paper's
    evaluation, plus the ablations called out in DESIGN.md.

    Each driver returns plain data (so tests can assert on it) and has a
    [render_*] companion producing the text the benchmark harness prints.
    Workloads default to their test scale; pass [~bench:true] for the
    paper-scale ("training input") runs. *)

open Ormp_workloads

(** One shared instrumented run of a workload: the same probe-event stream
    fanned out to LEAP, the lossless dependence baseline, Connors' windowed
    profiler and the lossless stride profiler. *)
type suite = {
  entry : Registry.entry;
  leap : Ormp_leap.Leap.profile;
  truth : Ormp_baselines.Lossless_dep.t;
  connors : Ormp_baselines.Connors.t;
  wu : Ormp_baselines.Lossless_stride.t;
}

val run_suite : ?bench:bool -> Registry.entry -> suite

val run_suites : ?bench:bool -> ?parallel:bool -> unit -> suite list
(** All seven SPEC-like workloads, in Table 1 order. With [~parallel:true]
    each suite runs on its own domain ([Domain.spawn]); suites share no
    mutable state, and the per-suite [elapsed] figures are monotonic wall
    clock, so they stay meaningful under parallel execution. *)

(** {1 Figure 5: OMSG vs RASG compression} *)

type fig5_row = {
  workload : string;
  rasg_bytes : int;
  omsg_bytes : int;
  rasg_symbols : int;
  omsg_symbols : int;
  compression_pct : float;  (** (rasg - omsg) / rasg, byte sizes *)
  rasg_time : float;
  omsg_time : float;
}

val fig5 : ?bench:bool -> unit -> fig5_row list
val render_fig5 : fig5_row list -> string

(** {1 Figures 6-8: memory-dependence error distributions} *)

type dist_row = { workload : string; hist : Ormp_util.Histogram.t }

val fig6 : suite list -> dist_row list
(** LEAP vs the lossless baseline. *)

val fig7 : suite list -> dist_row list
(** Connors vs the lossless baseline. *)

val render_dist : title:string -> dist_row list -> string

type fig8_data = {
  leap_avg : Ormp_util.Histogram.t;
  connors_avg : Ormp_util.Histogram.t;
  leap_good : float;
  connors_good : float;
  improvement_pct : float;
      (** relative improvement of LEAP's good fraction over Connors' (the
          paper's "56% improvement") *)
}

val fig8 : suite list -> fig8_data
val render_fig8 : fig8_data -> string

(** {1 Figure 9: stride score} *)

type fig9_row = {
  workload : string;
  real : int;  (** strongly-strided instructions per the lossless profiler *)
  identified : int;  (** of those, also identified by LEAP *)
  score : float;
}

val fig9 : suite list -> fig9_row list
val render_fig9 : fig9_row list -> string

(** {1 Table 1: LEAP profile size, speed and sample quality} *)

type table1_row = {
  workload : string;
  compression_ratio : float;
  dilation : float;
  accesses_captured : float;
  instructions_captured : float;
}

val table1 : ?bench:bool -> ?repeats:int -> suite list -> table1_row list
(** Dilation times each workload bare and LEAP-instrumented over whole
    batches of runs that start at [repeats] runs (default 3) and double
    until a batch takes at least 50 ms (or reaches 512 runs), and
    compares wall time. *)

val render_table1 : table1_row list -> string

(** {1 Ablations} *)

type budget_row = {
  budget : int;
  accesses_captured_b : float;
  instructions_captured_b : float;
  profile_bytes : int;
  mdf_good : float;  (** dependence accuracy at this budget *)
}

val ablation_lmad_budget :
  ?bench:bool -> ?budgets:int list -> Registry.entry -> budget_row list
(** §4.1's trade-off: "Reducing the number of LMADs will reduce the running
    time, but affect the profile quality." Defaults to budgets
     5/10/30/100. *)

val render_budget : workload:string -> budget_row list -> string

type window_row = { window : int; connors_good : float; pairs_found : int }

val ablation_connors_window :
  ?bench:bool -> ?windows:int list -> Registry.entry -> window_row list
(** How Connors' accuracy depends on the history-window size. *)

val render_window : workload:string -> window_row list -> string

type grouping_row = {
  workload_g : string;
  site_groups : int;  (** groups under allocation-site grouping *)
  type_groups : int;  (** groups when the compiler supplies type names *)
  site_capture : float;  (** LEAP access capture under [`Site] *)
  type_capture : float;
  site_omsg_bytes : int;  (** WHOMP profile size under [`Site] *)
  type_omsg_bytes : int;
}

val ablation_grouping : ?bench:bool -> unit -> grouping_row list
(** §3.1's refinement: "the compiler can provide type information to
    further refine this strategy". Compares [`Site] and [`Type] grouping
    on workloads where they differ (one type allocated at two sites, and
    two types allocated at one site). *)

val render_grouping : grouping_row list -> string

type pool_row = {
  pool_mode : string;  (** "single object" or "exposed pieces" *)
  pool_groups : int;
  pool_objects : int;  (** objects ever allocated *)
  pool_capture : float;
  pool_profile_bytes : int;
  pool_mdf_good : float;
}

val ablation_pool_handling : ?bench:bool -> unit -> pool_row list
(** §3.1's footnote: custom alloc pools can be profiled as single objects
    (the default) or by targeting the custom alloc/dealloc functions so
    every piece is its own object. Compares both on the parser stand-in. *)

val render_pool : pool_row list -> string

type phase_row = {
  workload_p : string;
  n_phases : int;
  mono_capture : float;  (** offset-stream capture, one budget for the run *)
  phased_capture : float;  (** budget reset at detected phase boundaries *)
}

val extension_phases : ?bench:bool -> unit -> phase_row list
(** §6's future work, implemented: detect phases from group-mix signatures
    and compare LMAD capture with and without per-phase budgets. *)

val render_phases : phase_row list -> string

type fused_row = {
  workload_f : string;
  fused_bytes : int;  (** one Sequitur over the interleaved 4-tuple stream *)
  omsg_bytes_f : int;  (** four per-dimension grammars *)
  decomposition_gain_pct : float;
}

val ablation_no_decomposition : ?bench:bool -> unit -> fused_row list
(** What horizontal decomposition itself buys (§2.2): compress the
    object-relative stream with and without splitting it by dimension. *)

val render_fused : fused_row list -> string
