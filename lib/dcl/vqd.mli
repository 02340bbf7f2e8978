(** Virtual queuing delay distributions: the discretized distribution
    of [Y], the end–end queuing delay of the (virtual) lost probes,
    however obtained — model posterior (Eq. 5), ground truth, or
    loss-pair samples.  The hypothesis tests and bound estimators all
    consume this type. *)

type t = {
  scheme : Discretize.t;
  pmf : float array;  (** length [scheme.m], sums to 1 *)
  cdf : float array;
}

val of_pmf : Discretize.t -> float array -> t
(** Requires a length-[m] non-negative vector with positive sum.  It
    is scaled to sum to 1, and [cdf] is its running sum with the last
    entry set to exactly 1 when it lies within 1e-9 of it. *)

val of_queuing_samples : Discretize.t -> float array -> t
(** Bin raw queuing-delay samples (seconds).  Requires a non-empty
    sample. *)

val of_trace_truth : Discretize.t -> Probe.Trace.t -> t
(** Ground-truth distribution from the virtual-probe records of a
    trace ("ns virtual" in the paper's figures).  Requires at least
    one loss. *)

val cdf_at : t -> int -> float
(** [cdf_at t j] = [P(Y <= symbol j)]; [j < 0] gives 0, [j >= m]
    gives 1. *)

val quantile_symbol : t -> float -> int
(** Smallest symbol [j] with [cdf_at t j >= q]. *)

val tv_distance : t -> t -> float
(** Total-variation distance [0.5 * sum_j |p_j - q_j|] between two
    distributions on the same number of symbols. *)

val pp : Format.formatter -> t -> unit
(** Render the PMF as "j:probability" pairs for reports. *)
