(** Moving-block bootstrap confidence intervals for the test statistic
    [F at 2*d_star].

    The hypothesis tests compare an {e estimated} CDF value against a
    threshold; the paper absorbs estimation error informally ("0.97 >=
    0.94").  This module quantifies it: the probe records are resampled
    in contiguous blocks (preserving the temporal dependence the models
    exploit), the identification statistic is recomputed per replicate,
    and a percentile interval is reported together with the fraction of
    replicates on each side of the WDCL threshold.

    The original trace and every replicate are fitted with the Markov
    model ([N = 1]) and otherwise the pipeline defaults — two orders of
    magnitude cheaper than the full MMHD and, on the traces of this
    repository, within a few percent of its statistic (see the ablation
    bench). *)

type interval = {
  point : float;  (** statistic of the original trace *)
  lo : float;  (** lower percentile bound *)
  hi : float;  (** upper percentile bound *)
  accept_fraction : float;
      (** fraction of replicates on which WDCL-Test accepts *)
  replicates : int;
}

val f_statistic : ?replicates:int -> rng:Stats.Rng.t -> Probe.Trace.t -> interval
(** [f_statistic ~rng trace] bootstraps [F at 2*d_star] in blocks of
    20 s of probing and reports the 90% percentile interval (the 5th
    and 95th percentiles).  [replicates] defaults to 50.  Replicates on
    which the resampled trace is unidentifiable are skipped (they still
    count toward [replicates]); raises like {!Identify.run} if the
    original trace is unidentifiable. *)
