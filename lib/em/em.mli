(** The EM kernel and the one model type of the paper's two model
    families.

    A {!model} is a Markov chain over [s] states where state [st]
    emits delay symbol [j] with probability [b.(st * m + j)] and a probe
    whose symbol is [j] is lost — observed as a missing value — with
    probability [c.(j)].  {!Hmm} and {!Mmhd} build such models: the HMM
    ([s = n] hidden states) has a free row-stochastic [b] that EM
    re-estimates; the MMHD ([s = n * m] states, state [x * m + y] for
    hidden component [x] and symbol [y]) has the fixed 0/1 indicator
    [b] ([b.(st * m + j) = 1] iff [st mod m = j]), which EM must not
    touch.  Everything else — likelihood, posteriors, Eq. (5), the EM
    step and streaming statistics — is defined here once for both.

    The kernel provides the scaled forward–backward recursion, the
    loss-as-missing-value emission logic (Section V of the paper), the
    EM step, the SQUAREM-accelerated fit loop ({!fit_from}) and the
    informed-restart fit.  A sweep reads the sequence twice: the
    forward pass, then one descending-time pass that runs the backward
    recursion and accumulates the E-step statistics (transition
    statistics, their denominators, per-symbol observation and loss
    counts) as it goes, so each statistic is summed in descending time
    order.  The sweep state lives in flat float arrays preallocated in
    a reusable {!workspace}.  States with zero emission probability for
    an observation are skipped via per-symbol active-state lists, which
    restores the MMHD's [O(T * n * s)] sparse cost inside the generic
    kernel, and the forward and backward variables are stored compactly
    over those lists: an instant's row holds only its active states
    (n of the MMHD's n * m for an observed probe), so their live size is
    the number of active (time, state) pairs, not [T * s].  Scaling is
    lazy: a forward row is normalized only at both ends and near
    underflow, so a likelihood read takes a logarithm per
    renormalization, not per probe.  Results match per-step scaling up
    to rounding, except that a state whose filtered probability is
    below about 2{^-766} may be flushed to 0 where per-step scaling
    keeps it down to 2{^-1022}.  A forward row sum below 2{^-512},
    which takes an observation less likely than 2{^-256} given the
    past, reruns the pass with per-step scaling, so {!Zero_likelihood}
    is raised where per-step scaling raises it.

    Hot-path layout: an {!observation} is its own
    {e observation class} (symbol [j], or [m] for a loss), indexing a
    single class-major emission table and the active-state lists, so
    emission rows are computed once per class per sweep; the sweeps
    read the caller's array in place (range-checked once per
    {!fit_from} call, once per call for the one-shot entry points), and
    the model's [pi] and [a] likewise.  These are pure layout changes:
    results are bit-identical to the direct formulation.

    Every sweep and every fit runs serially; the only parallelism is
    the fleet's pool fanning out over independent paths, each domain on
    its own {!domain_ws}. *)

type model = Em_kernel.model = {
  s : int;  (** number of states *)
  m : int;  (** number of delay symbols *)
  pi : float array;  (** initial distribution, length [s] *)
  a : float array;  (** transitions, [s * s] row-major: [a.(i * s + k)] *)
  b : float array;  (** symbol emission, [s * m] row-major, row-stochastic *)
  c : float array;  (** [c.(j)] = P(loss | symbol [j]), length [m] *)
}

type observation = int
(** Delay symbol [j] in [\[0, m)] observed, or [m]: probe lost (the
    paper's missing value, Section V).  A sequence is a plain
    [int array]. *)

type fit_stats = {
  iterations : int;
      (** Sweeps run, at most [max_iter]: each EM step is one, and so is
          each SQUAREM extrapolated point {!fit_from} rejects after its
          forward pass alone. *)
  log_likelihood : float;  (** of the returned model *)
  converged : bool;
  skipped_restarts : int;
      (** Restarts discarded as degenerate ({!Zero_likelihood}) by
          {!fit_informed}; always [0] from {!fit_from}. *)
}

exception Zero_likelihood of int
(** Raised (with the offending time index) when an observation has zero
    probability under the current model, e.g. after an emission row
    collapses.  {!fit_informed} treats this as a degenerate restart and
    skips it instead of aborting. *)

type workspace
(** Reusable scratch buffers ([alpha], [beta], [scale], [xi],
    expected-count accumulators, active-state lists, and the statistics
    {!em_step} hands its M-step).  Buffers grow on
    demand and are retained between calls, so a fit of any number of
    sweeps performs no per-sweep [O(T * s)] allocation.  A
    workspace must not be shared across concurrent fits. *)

val workspace : unit -> workspace
(** A fresh (empty) workspace. *)

val domain_ws : unit -> workspace
(** The calling domain's workspace, held in domain-local
    storage and reused across calls — the idiomatic way to get an
    allocation-free series of fits without threading a workspace
    explicitly. *)

val validate : model -> unit
(** Raises [Invalid_argument] unless [s] and [m] are positive, [pi] is a
    distribution over [s] states, [a] ([s * s]) and [b] ([s * m]) are
    row-stochastic, and [c] holds [m] probabilities. *)

val check_symbols : who:string -> m:int -> observation array -> unit
(** Raises [Invalid_argument] (prefixed by [who]) naming the time index
    of the first observation outside [\[0, m\]], in one pass that
    allocates nothing when every observation is in range. *)

(** Every function below that sweeps a sequence raises
    [Invalid_argument] on an empty sequence or on an observation
    outside [\[0, m\]] (naming its time index).  The sequence must not
    change during the call: the sweeps read it in place. *)

val log_likelihood : ws:workspace -> model -> observation array -> float
(** Scaled-forward log-likelihood (forward pass only): the sum of the
    logarithms of its renormalization scales, in ascending time.
    @raise Zero_likelihood on an impossible observation. *)

val state_posteriors : ws:workspace -> model -> observation array -> float array array
(** [gamma.(t).(st)] = P(state [st] at time [t] | observations).  The
    result is freshly allocated; the sweep itself uses the workspace. *)

val virtual_delay_pmf : ws:workspace -> model -> observation array -> float array
(** Equation (5): the posterior delay-symbol distribution of the lost
    probes, averaged over all loss instants — the sweep's per-symbol
    loss counts summed over states and normalized.  Requires at least
    one loss ([Invalid_argument] otherwise). *)

val em_step :
  ws:workspace -> update_b:bool -> model -> observation array -> model
(** One plain EM step: a forward–backward sweep, whose backward pass
    accumulates the statistics, then the M-step {!Incremental.m_step}
    also runs.  When [update_b] is false the emission matrix [b] is
    shared, not re-estimated (the MMHD case, where [b] is structural).
    Re-estimated parameter blocks are floored away from zero
    (transitions and any re-estimated [b] at 1e-12 before row
    normalization, [c] clamped to [1e-9, 1 - 1e-9]) so that a symbol's
    emission probability cannot collapse to exactly zero during EM.
    The statistics go to scratch kept in [ws], so a step allocates
    only the new model.  {!fit_from} iterates this step under SQUAREM;
    it stays exported as the reference M-step the fleet's
    {!Incremental.m_step} is tested against. *)

(** Streaming EM over decayed sufficient statistics — the per-path
    recursion of the fleet layer ([lib/fleet]).  A {!Incremental.stats}
    value holds the E-step accumulators (transition statistics, state
    denominators, per-symbol observation and loss counts, batch-start
    posteriors) of every observation batch appended so far, each
    multiplied by a forgetting factor [lambda] per {!Incremental.decay};
    {!Incremental.m_step} re-estimates a model from the decayed totals
    exactly as {!em_step} does from a single batch.  One
    [decay]/[append]/[m_step] round per epoch is one online-EM
    iteration whose cost is O(batch), independent of the history
    length. *)
module Incremental : sig
  type stats
  (** Decayed sufficient-statistic accumulators for one monitored
      sequence ([O(s^2 + s*m)] floats; no per-observation state). *)

  val create : s:int -> m:int -> stats
  (** Empty statistics for an [s]-state, [m]-symbol model.  Raises
      [Invalid_argument] on non-positive dimensions. *)

  val reset : stats -> unit
  (** Zero every accumulator and drop the carried filtered
      distribution (e.g. after a {!Zero_likelihood} recovery). *)

  val decay : stats -> lambda:float -> unit
  (** Multiply every accumulator (and the running weight and
      log-likelihood) by [lambda] in [\[0, 1\]]; [lambda = 1] is the
      bitwise identity.  Raises [Invalid_argument] on any other
      [lambda], NaN included.  Call once per epoch before {!append}: the
      effective memory is a [1 / (1 - lambda)]-batch exponential
      window. *)

  val append : ws:workspace -> stats -> model -> observation array -> float
  (** Run one serial forward–backward sweep of [model] over the batch
      and add its E-step statistics to the accumulators; returns the
      batch's log-likelihood.  The sweep is seeded from the previous
      batch's filtered end-distribution
      propagated one step through the model's transitions, so the
      forward likelihood factorizes across batches exactly
      ([logL(b1 ++ b2) = append b1 + append b2] up to the association
      of the final log sums); smoothing, however, is truncated at batch
      boundaries and the boundary transition's expected counts are not
      accumulated — the two approximations of the streaming recursion.
      A first batch, or the first after {!reset}, seeds from
      [model.pi].
      Raises [Invalid_argument] on an empty batch, a dimension
      mismatch or an out-of-range symbol, {!Zero_likelihood} on an
      impossible observation (the statistics are untouched in every
      case). *)

  val m_step : stats -> model -> model
  (** Re-estimate the model from the decayed totals with {!em_step}'s
      own M-step (same zero-row fallbacks to the current parameters,
      same floors) and [b] kept fixed (the MMHD case), so with
      [lambda = 1] and a single appended batch the result is
      bit-identical to [em_step ~update_b:false model batch].  Raises
      [Invalid_argument] before the first {!append}. *)

  val loss_mass : stats -> float array
  (** Per-symbol virtual-delay mass of the lost probes,
      [sum_st count_loss(st, j)] — the streaming analogue of the
      Eq. (5) numerator.  Normalizing it yields the VQD estimate the
      SDCL/WDCL tests consume ({!Dcl.Vqd.of_pmf}). *)

  val filtered_end : stats -> float array
  (** Copy of the filtered state distribution at the last appended
      instant (all zeros before the first append). *)

  val weight : stats -> float
  (** Decayed total observation count — the effective sample size
      behind the current statistics. *)

  val log_likelihood : stats -> float
  (** Decayed sum of per-batch log-likelihoods. *)

  val batches : stats -> int
  (** Number of batches appended since creation / {!reset}. *)

  val xi : stats -> float array
  (** Copies of the raw decayed accumulators, for tests and
      introspection: transition statistics ([s*s]), transition
      denominators ([s]), per-symbol observation and loss counts
      ([s*m] each). *)

  val gamma_sum : stats -> float array
  val count_obs : stats -> float array
  val count_loss : stats -> float array
end

val fit_from :
  ws:workspace ->
  ?eps:float ->
  ?max_iter:int ->
  update_b:bool ->
  model ->
  observation array ->
  model * fit_stats
(** EM from an explicit starting point, accelerated by SQUAREM
    (Varadhan & Roland, Scand. J. Statist. 35, 2008), until one EM
    step's largest absolute parameter change is at most [eps] (default
    1e-3; [converged]) or [max_iter] (default 300) sweeps have run.

    Each cycle takes two EM steps [x1 = F(x0)], [x2 = F(x1)], forms
    [r = x1 - x0] and [v = x2 - 2 x1 + x0] over [pi], [a], [c] (and [b]
    when [update_b]), and extrapolates
    [x' = x0 - 2 alpha r + alpha^2 v] with [alpha = -|r|/|v|] clamped
    to at most -1 ([alpha = -1] gives [x2]).  [x'] is projected back
    onto the feasible set: [pi] keeps [x2]'s zeros and is clipped at 0
    and renormalized, rows of [a] (and [b]) are floored at 1e-12 and
    renormalized, and [c] is clamped to [\[1e-9, 1 - 1e-9\]], as in
    {!em_step}.  [x'] is then judged by its forward pass alone: if
    logL(x') is at least logL(x1), the sweep completes on that forward
    pass into the stabilising step [F(x')]; if it is below, not a
    number, or {!Zero_likelihood} is raised, [x'] is rejected at the
    cost of that one forward pass (no backward pass, no M-step) and
    the cycle takes the plain step [F(x2)] instead (counted in
    [dcl_em_squarem_fallbacks_total]).  A rejected [x'] counts as one
    sweep, in [iterations] and against [max_iter], like an accepted
    one; it is traced as an [em.candidate] span and kept out of
    [dcl_em_sweep_seconds], which times whole sweeps only.
    The convergence test and the cap are applied after every sweep,
    so [iterations] never exceeds [max_iter]; a cycle whose fallback
    would pass the cap returns [x2].  Each sweep's extra allocation is
    [O(s^2 + s*m)], never [O(T)].  The observations are classified
    (and range-checked) once per call; a sweep takes the logarithms of
    its scales only when its likelihood is compared (that of [x1] and
    of [x']) or reported.

    [max_iter = 1] and [2] are exactly one and two plain EM steps.
    Raises [Invalid_argument] for [max_iter < 1] or an [eps] that is
    NaN or negative, and on an empty sequence or out-of-range symbol.
    @raise Zero_likelihood when an EM step (other than the stabilising
    one) meets an impossible observation. *)

val neighbor_attribution : m:int -> observation array -> float array * float array
(** [(seen, lost)]: per-symbol counts of observed probes (plus 1) and
    of losses attributed to the symbol of their nearest surviving
    neighbour (plus 0.5) — the empirical analogue of the posterior the
    EM computes.  Both model families seed their loss probabilities [c]
    from it, so EM starts near solutions that explain losses with the
    symbols actually observed around them. *)

val fit_informed :
  ?eps:float ->
  ?max_iter:int ->
  ?restarts:int ->
  who:string ->
  rng:Stats.Rng.t ->
  update_b:bool ->
  init:(Stats.Rng.t -> model) ->
  observation array ->
  model * fit_stats
(** The informed-restart fit behind [Hmm.fit] and [Mmhd.fit]: runs
    {!fit_from} from [restarts] (default 2) starting points [init r],
    each [r] split from [rng] in restart order, one after another on
    the calling domain's workspace, and returns the winner: converged beats
    non-converged, then higher log-likelihood, then lower restart
    index.  [init] should be the model family's jittered data-driven
    initializer; purely random starts are not raced (see the
    implementation comment on degenerate optima).  A restart that hits
    {!Zero_likelihood} is skipped and counted in [skipped_restarts].
    Raises [Invalid_argument] on non-positive [restarts], on
    [max_iter < 1] or an [eps] that is NaN or negative, and [Failure]
    if every restart degenerates, all prefixed by [who]. *)
