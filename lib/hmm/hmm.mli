(** Hidden Markov model over discretized delay symbols, extended with
    per-symbol loss probabilities so that a probe loss can be treated
    as a delay observation with a missing value (Section V of the
    paper).

    The model has [n] hidden states and [m] delay symbols.  The hidden
    state evolves as a Markov chain ([pi], [a]); in state [i] the probe
    has delay symbol [j] with probability [b.(i).(j)]; a probe whose
    delay symbol is [j] is lost (observed as missing) with probability
    [c.(j)].  The observable is therefore either [Some j] (delay
    symbol) or [None] (loss). *)

type t = {
  n : int;
  m : int;
  pi : float array;  (** initial hidden-state distribution, length [n] *)
  a : float array array;  (** hidden-state transitions, [n]×[n] *)
  b : float array array;  (** symbol emission per state, [n]×[m] *)
  c : float array;  (** [c.(j)] = P(loss | symbol [j]), length [m] *)
}

type observation = int option
(** [Some j]: delay symbol [j] observed; [None]: probe lost. *)

type fit_stats = Em.fit_stats = {
  iterations : int;
  log_likelihood : float;
  converged : bool;  (** parameter change fell below the threshold *)
  skipped_restarts : int;
      (** restarts discarded as degenerate by {!fit}; [0] from {!fit_from} *)
}

val init_random : Stats.Rng.t -> n:int -> m:int -> loss_fraction:float -> t
(** Random starting point: stochastic [pi], [a], [b] bounded away from
    zero, and [c.(j)] set near [loss_fraction] (the empirical loss rate
    of the trace) so the first E-step is well conditioned. *)

val init_informed : Stats.Rng.t -> n:int -> m:int -> observation array -> t
(** Data-driven starting point: emissions from the observed symbol
    frequencies and [c] from attributing each loss to its nearest
    surviving neighbour's symbol (see {!Mmhd.init_informed}).  {!fit}
    always includes this starting point. *)

val validate : t -> unit
(** Raises [Invalid_argument] unless all parameter blocks are
    stochastic / probabilities. *)

val log_likelihood : t -> observation array -> float

val viterbi : t -> observation array -> int array * float
(** Most likely hidden-state sequence given the observations (losses
    handled through the missing-value emission) and its log
    probability, by log-space dynamic programming.  A diagnostic tool:
    e.g. segmenting a trace into calm/congested phases. *)

val state_posteriors : t -> observation array -> float array array
(** [gamma.(t).(i)] = P(hidden state [i] at time [t] | observations),
    computed by scaled forward–backward.  For tests and diagnostics. *)

val fit :
  ?eps:float ->
  ?max_iter:int ->
  ?restarts:int ->
  ?domains:int ->
  rng:Stats.Rng.t ->
  n:int ->
  m:int ->
  observation array ->
  t * fit_stats
(** Baum–Welch EM handling missing values.  Iterates until the largest
    absolute parameter change drops below [eps] (default 1e-3, the
    paper's threshold) or [max_iter] (default 300).  [restarts] (default 2)
    independently-jittered {!init_informed} starting points are raced
    and the best converged fit wins; purely random starting points are
    not used (see {!Em.fit_informed}).
    With [domains > 1] the restarts run on that many concurrent
    domains of the persistent pool ({!Stats.Pool}; domains are spawned
    once per process and their EM workspaces stay warm across calls);
    each restart draws from its own pre-split RNG, so the winning
    model is bit-identical to the serial run. *)

val fit_from :
  ?eps:float ->
  ?max_iter:int ->
  t ->
  observation array ->
  t * fit_stats
(** EM from an explicit starting point. *)

val to_em : t -> Em.model
(** The flattened {!Em} view of the model ([s = n] states); exposed so
    benchmarks and tests can drive the shared kernel directly. *)

val virtual_delay_pmf : t -> observation array -> float array
(** Equation (5): [P(Y = j | loss)] — the posterior delay-symbol
    distribution of the lost probes, averaged over all loss instants of
    the sequence.  Requires at least one loss.  This is the
    distribution the hypothesis tests consume. *)

val simulate : Stats.Rng.t -> t -> len:int -> observation array * int array
(** Draw a sequence from the model; returns (observations, hidden
    states).  Used by tests to check parameter recovery. *)
