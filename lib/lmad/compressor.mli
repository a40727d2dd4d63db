(** The LEAP linear compressor (§4.1).

    Reads an n-dimensional point stream and describes it with at most
    [budget] LMADs. A new point first tries to extend the {e current}
    descriptor; a mismatch that falls exactly on an iteration boundary can
    instead {e deepen} the descriptor by one loop level (up to
    [max_depth]), which is how a repeating inner-loop sweep becomes a
    single two-level LMAD instead of one descriptor per sweep. Any other
    mismatch closes the current descriptor and starts a new one. Once the
    budget is exhausted, non-fitting points are {e discarded} and only an
    overall summary (per-dimension min, max and granularity) is kept —
    this is what makes LEAP lossy. The paper uses a budget of 30 LMADs per
    (instruction, group) pair. *)

type summary = {
  min_v : int array;  (** per-dimension minimum over discarded points *)
  max_v : int array;  (** per-dimension maximum over discarded points *)
  granularity : int array;
      (** per-dimension gcd of deltas between consecutive discarded points *)
  discarded : int;    (** number of discarded points *)
}

type t

type placement =
  | Extended of int  (** the point extended the LMAD with this creation index *)
  | Opened of int  (** a new LMAD with this creation index was started *)
  | Discarded  (** budget exhausted; the point went into the summary *)

val create : ?budget:int -> ?max_depth:int -> dims:int -> unit -> t
(** [create ~dims ()] with the paper's default budget of 30 and at most 3
    nesting levels per descriptor. *)

val default_budget : int
(** 30, per §4.1. *)

val add : t -> int array -> placement
(** Offer the next point of the stream; reports where it went so callers
    can keep per-descriptor side metadata (LEAP keeps time spans). A point
    that closes the current descriptor and opens a fresh one reports
    [Opened]; the trailing partial iteration of the closed descriptor is
    transparently carried into the fresh one.
    @raise Invalid_argument on dimension mismatch. *)

(** {2 Scalar entry points}

    [add] boxes every point into an array and allocates its [placement]
    result; the LEAP hot path feeds millions of 1- and 2-dimensional
    points per run, so these variants take the point as scalars and
    return the creation index of the descriptor the point went to
    (extended or opened), or -1 if it was discarded. Semantics are
    identical to [add] — the two steady states (extend a matching
    descriptor, discard over budget) are allocation-free, and every
    structural change routes through the same machinery as [add]. *)

val add2_code : t -> int -> int -> int
(** [add2_code t a b] is [add t [|a; b|]]'s descriptor index, or -1 for
    [Discarded].
    @raise Invalid_argument unless the compressor has [dims = 2]. *)

val add1_code : t -> int -> int
(** [add1_code t a] is [add t [|a|]]'s descriptor index, or -1 for
    [Discarded].
    @raise Invalid_argument unless the compressor has [dims = 1]. *)

val lmads : t -> Lmad.t list
(** Closed and open descriptors, in creation order. The open descriptor's
    trailing partial iteration is not visible here (it is still pending). *)

val total : t -> int
(** Points offered so far. *)

val captured : t -> int
(** Points represented by the descriptors ([total - discarded]). *)

val discarded : t -> int
(** Points dropped into the summary. *)

val fully_captured : t -> bool
(** No point was discarded: the descriptors describe the stream
    losslessly. *)

val summary : t -> summary option
(** Present iff at least one point was discarded. *)

val byte_size : t -> int
(** Serialized size of all LMADs plus the summary, in varint bytes. *)

val reconstruct : t -> int array list
(** Every captured point in arrival order (including the open descriptor's
    pending partial iteration); equals the input stream when
    [fully_captured]. For tests. *)

(** {1 Exact state snapshots}

    Checkpoint/resume needs the exact live state — open descriptor,
    pending partial iteration, discarded-summary chain — so that a
    restored compressor placed back in a stream behaves byte-for-byte
    like one that was never interrupted. A profile file keeps less: its
    descriptors are {!lmads} (the open one finalized), and it is rebuilt
    through {!of_state} with no open descriptor and no last discarded
    point, so further [add]s start a fresh descriptor and the summary's
    granularity chain restarts. *)

type open_state = {
  s_start : int array;  (** descriptor origin *)
  s_levels : Lmad.level list;  (** frozen inner levels, innermost first *)
  s_top_stride : int array option;
      (** stride of the still-growing outermost level; [None] before the
          second point arrives *)
  s_top_done : int;  (** complete outer iterations consumed *)
  s_partial : int;  (** points consumed of the next outer iteration *)
}
(** The in-flight descriptor, field for field. *)

type state = {
  s_dims : int;
  s_budget : int;
  s_max_depth : int;
  s_closed : Lmad.t list;  (** closed descriptors, creation order *)
  s_current : open_state option;
  s_total : int;
  s_summary : summary option;
      (** present iff points were discarded; carries the discarded count *)
  s_last_discarded : int array option;
      (** last discarded point, so the granularity gcd chain continues *)
}

val state : t -> state
(** Deep snapshot of the exact compressor state (arrays are copied). *)

val of_state : state -> t
(** Rebuild from {!state}. [add]s on the result behave exactly as they
    would have on the original — extending the open descriptor, deepening
    on the same boundaries, and continuing the summary's granularity
    chain. Every compressor is valid however it was built.
    @raise Invalid_argument on an inconsistent state: descriptors of
    another dimensionality or over the budget, an open descriptor with no
    outer iteration done or with as many points of the next as its inner
    pattern holds, a summary that is empty,
    of another dimensionality, with a min above its max or a negative
    granularity, more points discarded than seen, or descriptors that
    describe more points than were captured. *)
