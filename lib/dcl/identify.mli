(** The end-end identification pipeline (Sections IV–V): discretize
    the trace, fit a model treating losses as missing delay values,
    read off the virtual queuing delay distribution, run the hypothesis
    tests, and bound the dominant link's maximum queuing delay. *)

type model =
  | Model_mmhd
      (** {!Mmhd.fit}, the paper's recommended model.  With [n = 1] it
          has no hidden dimension: the plain Markov model of the
          paper's ablation, [{ default_params with n = 1 }]. *)
  | Model_hmm
      (** {!Hmm.fit}.  With [m > n] its [n(m-1) + m] emission and loss
          parameters exceed the [n m] probabilities the data pin, so its
          Eq. (5) VQD is not identified and moves with the EM path (up
          to 0.014 per symbol at equal logL, 2 states, 3 symbols): any
          change to the fit loop or to the kernel's arithmetic order can
          move it and its test statistics. *)

type params = {
  model : model;
  n : int;  (** hidden states / hidden-dimension size *)
  m : int;  (** delay symbols; the paper uses 5 (tests) or 40 (bounds) *)
  em_eps : float;  (** EM convergence threshold (paper: 1e-3 or 1e-4) *)
  prop_delay : Discretize.prop_delay;
  beta : float;  (** WDCL loss parameter *)
  eps : float;  (** WDCL delay parameter *)
}

val default_params : params
(** MMHD with [n = 2], [m = 5], EM threshold 1e-3, propagation delay
    from the trace, WDCL parameters [beta = 0.06] and [eps = 0] — the
    configuration of the paper's worked examples.  The fit runs the
    model's own {!Mmhd.fit}/{!Hmm.fit} defaults (2 restarts, at most
    300 sweeps each).  {!conclude} runs the SDCL test at tolerance
    0.005 (the {!Tests} default) and the WDCL test at 0.04, which
    absorbs the downward bias of the model-based [F]: a lost probe's
    posterior leaks a little mass to neighbouring symbols. *)

type conclusion = Strongly_dominant | Weakly_dominant | No_dominant

type result = {
  params : params;
  scheme : Discretize.t;
  vqd : Vqd.t;
  sdcl : Tests.outcome;
  wdcl : Tests.outcome;
  conclusion : conclusion;
  bound : float option;
      (** upper bound on the dominant link's [Q_k] (seconds) when a
          DCL was identified: the SDCL median bound, or the WDCL
          [beta]-bound *)
  loss_rate : float;
  observations : int;
  em_iterations : int;  (** forward–backward sweeps of the winning restart *)
  log_likelihood : float;
  em_converged : bool;
  em_skipped_restarts : int;
      (** EM restarts discarded as degenerate (zero-likelihood) *)
}

val fit_vqd :
  ?params:params -> rng:Stats.Rng.t -> Probe.Trace.t -> Vqd.t * Em.fit_stats
(** Model-fitting front half only: returns the inferred virtual
    queuing delay distribution and the winning fit's statistics.  Used
    by the figure benches that plot distributions without running the
    tests. *)

type verdicts = {
  sdcl : Tests.outcome;
  wdcl : Tests.outcome;
  conclusion : conclusion;
  bound : float option;
}

val conclude : ?params:params -> Vqd.t -> verdicts
(** The back half of the pipeline: run the SDCL and WDCL tests on an
    already-obtained virtual queuing delay distribution and derive the
    conclusion and bound.  Only the test parameters of [params]
    ([beta], [eps]) are consulted.  [run] is [fit_vqd] followed by
    [conclude]; the fleet layer calls this directly on distributions
    read off streaming sufficient statistics
    ({!Em.Incremental.loss_mass}), where there is no trace to refit. *)

val run : ?params:params -> rng:Stats.Rng.t -> Probe.Trace.t -> result
(** Full pipeline.  Raises [Invalid_argument] when the trace has no
    loss or no delay spread (identification needs both; see
    {!identifiable}). *)

val identifiable : Probe.Trace.t -> bool
(** The trace has at least one loss, at least one surviving probe, and
    a positive delay spread. *)

val conclusion_to_string : conclusion -> string

val verdict_name : conclusion option -> string
(** ["untested"] (no conclusion yet), ["strongly-dominant"],
    ["weakly-dominant"] or ["no-dominant"] — static strings, kebab-cased
    for JSON, trace events and the daemon's reports. *)

val pp_result : Format.formatter -> result -> unit
