(** Fixed-bin histograms and discrete probability distributions
    (PMF/CDF) over bin indices.

    The paper discretizes end-end queuing delay into [m] equal-width
    bins over [\[lo, hi\]]; symbol [j] (1-based in the paper, 0-based
    here) covers the delay range [(lo + j*w, lo + (j+1)*w]] with
    [w = (hi - lo) / m].  All distribution-level operations in the
    repository (hypothesis tests, bounds, distances) work on the
    0-based bin index. *)

type t
(** A histogram with [m] equal-width bins over [\[lo, hi\]]. *)

val create : m:int -> lo:float -> hi:float -> t
(** Requires [m > 0] and [hi > lo]. *)

val lo : t -> float
val width : t -> float

val index_of : t -> float -> int
(** [index_of h x] maps a value to its bin.  Bins are half-open on the
    shared boundary grid [edges.(j) = lo + j*w]: bin [j] owns
    [\[edges.(j), edges.(j+1))], except the last bin which also owns
    [hi].  The index is reconciled against that grid, so a sample
    lying exactly on a boundary always lands in the bin whose lower
    edge it is — the raw [(x - lo) / w] division can round either way
    at a boundary and would otherwise place boundary samples in the
    adjacent bin.  Values outside [\[lo, hi\]] clamp to the first/last
    bin; {!add} counts such clamps (see {!clamped}). *)

val value_of : t -> int -> float
(** [value_of h j] is the upper edge of bin [j] — the paper's
    convention for converting a discretized delay back to an actual
    delay value ("the corresponding actual delay value is j*w"). *)

val add : t -> float -> unit
(** Bin a sample via {!index_of}.  A sample strictly outside
    [\[lo, hi\]] is clamped into the edge bin rather than dropped —
    silently mixing out-of-range mass into the edge bins skews the
    delay PMF, so each clamp is recorded in the per-histogram
    {!clamped} counter and the process-wide
    [dcl_histogram_clamped_total] {!Obs.Counter}. *)

val total : t -> int

val clamped : t -> int
(** Number of {!add} samples that fell strictly outside [\[lo, hi\]]
    and were clamped into an edge bin. *)

val pmf : t -> float array
(** Normalized counts; all zeros when the histogram is empty. *)

val mode_value : t -> float
(** Upper edge of the most-populated bin.  Requires a non-empty
    histogram. *)

(** {1 Operations on probability vectors} *)

val cdf_of_pmf : float array -> float array
(** Running sum; last entry forced to exactly 1.0 when the input sums
    to within 1e-9 of 1. *)

val normalize : float array -> float array
(** Scale a non-negative vector to sum to 1.  Requires positive sum. *)

val total_variation : float array -> float array -> float
(** TV distance [0.5 * sum |p_i - q_i|] between same-length PMFs. *)
