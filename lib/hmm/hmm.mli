(** Hidden Markov model over discretized delay symbols, extended with
    per-symbol loss probabilities so that a probe loss can be treated
    as a delay observation with a missing value (Section V of the
    paper).

    The model has [n] hidden states and [m] delay symbols, held as an
    {!Em.model} with [s = n].  The hidden state evolves as a Markov
    chain ([pi], [a]); in state [i] the probe has delay symbol [j] with
    probability [b.(i * m + j)]; a probe whose delay symbol is [j] is
    lost (observed as missing) with probability [c.(j)].  The
    observable is therefore either [Some j] (delay symbol) or [None]
    (loss).  Likelihood, posteriors, Viterbi decoding and the Eq. (5)
    virtual delay pmf are {!Em}'s. *)

val init_random : Stats.Rng.t -> n:int -> m:int -> loss_fraction:float -> Em.model
(** Random starting point: stochastic [pi], [a], [b] bounded away from
    zero, and [c.(j)] set near [loss_fraction] (the empirical loss rate
    of the trace) so the first E-step is well conditioned. *)

val init_informed : Stats.Rng.t -> n:int -> m:int -> Em.observation array -> Em.model
(** Data-driven starting point: emissions from the observed symbol
    frequencies and [c] from attributing each loss to its nearest
    surviving neighbour's symbol ({!Em.neighbor_attribution}).  {!fit}
    always starts here. *)

val fit :
  ?eps:float ->
  ?max_iter:int ->
  ?restarts:int ->
  rng:Stats.Rng.t ->
  n:int ->
  m:int ->
  Em.observation array ->
  Em.model * Em.fit_stats
(** Baum–Welch EM handling missing values, [b] re-estimated:
    {!Em.fit_informed} over [restarts] (default 2) jittered
    {!init_informed} starts, each accelerated by SQUAREM
    ({!Em.fit_from}) until one EM step's largest parameter change is at
    most [eps] (default 1e-3, the paper's threshold) or [max_iter]
    (default 300) sweeps have run.

    With [m > n], [b] and [c] are not identified ([n(m-1) + m] values
    against the [n m] probabilities the data pin), so the result's
    Eq. (5) pmf depends on the EM path; see [Dcl.Identify.Model_hmm]. *)

val fit_from :
  ?eps:float -> ?max_iter:int -> Em.model -> Em.observation array -> Em.model * Em.fit_stats
(** EM from an explicit starting point, on the calling domain's
    workspace. *)

val simulate : Stats.Rng.t -> Em.model -> len:int -> Em.observation array * int array
(** Draw a sequence from the model ({!Em.validate}d first); returns
    (observations, hidden states).  Used by tests to check parameter
    recovery. *)
