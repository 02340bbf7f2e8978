(** Moving-block bootstrap confidence intervals for the test statistic
    [F at 2*d_star].

    The hypothesis tests compare an {e estimated} CDF value against a
    threshold; the paper absorbs estimation error informally ("0.97 >=
    0.94").  This module quantifies it: the probe records are resampled
    in contiguous blocks (preserving the temporal dependence the models
    exploit), the identification statistic is recomputed per replicate,
    and a percentile interval is reported together with the fraction of
    replicates on each side of the WDCL threshold.

    By default replicates are fitted with the Markov model ([N = 1]) —
    two orders of magnitude cheaper than the full MMHD and, on the
    traces of this repository, within a few percent of its statistic
    (see the ablation bench). *)

type interval = {
  point : float;  (** statistic of the original trace *)
  lo : float;  (** lower percentile bound *)
  hi : float;  (** upper percentile bound *)
  accept_fraction : float;
      (** fraction of replicates on which WDCL-Test accepts *)
  replicates : int;
}

val f_statistic :
  ?params:Identify.params ->
  ?replicates:int ->
  ?block:float ->
  ?confidence:float ->
  rng:Stats.Rng.t ->
  Probe.Trace.t ->
  interval
(** [f_statistic ~rng trace] bootstraps [F at 2*d_star].  [replicates]
    defaults to 50, [block] to 20 s of probing, [confidence] to 0.9
    (i.e. the 5th and 95th percentiles).  [params] defaults to the
    pipeline defaults with the Markov model.  Replicates on which the
    resampled trace is unidentifiable are skipped (they still count
    toward [replicates]); raises like {!Identify.run} if the original
    trace is unidentifiable. *)
