(** Markov model with a hidden dimension (MMHD; Wei, Wang, Towsley,
    "Continuous-time hidden Markov models for network performance
    evaluation", Performance Evaluation 2002), with the missing-value
    EM of the paper's Appendix B.

    Unlike an HMM, the state itself contains the observable: a state is
    a pair [(x, y)] of a hidden component [x] in [0..n-1] and a delay
    symbol [y] in [0..m-1], and the pair evolves jointly as a Markov
    chain over [n*m] states.  When the chain is in state [(x, y)] the
    probe is lost (observed as missing) with probability [c.(y)],
    otherwise symbol [y] is observed directly.  With [n = 1] the model
    degenerates to a plain Markov chain on the delay symbols.

    The model is an {!Em.model} with [s = n * m] states flattened as
    [st = x * m + y] (so [y = st mod m] and [x = st / m]), and the fixed
    0/1 emission matrix "state [st] emits [st mod m]", which EM never
    re-estimates.  Likelihood, posteriors and the Eq. (5) virtual delay
    pmf are {!Em}'s. *)

val make : n:int -> m:int -> pi:float array -> a:float array -> c:float array -> Em.model
(** The MMHD with initial distribution [pi] (length [n*m]), row-major
    transitions [a] ([n*m] by [n*m]) and loss probabilities [c]
    (length [m]); fills in the indicator emission matrix.  The arrays
    are used as given, not copied or checked (see {!Em.validate}). *)

val init_random : Stats.Rng.t -> n:int -> m:int -> loss_fraction:float -> Em.model
(** The paper's initialization: random stochastic transition matrix,
    near-uniform [pi], and [c] seeded at the empirical loss rate. *)

val init_informed : Stats.Rng.t -> n:int -> m:int -> Em.observation array -> Em.model
(** Data-driven starting point: transitions from the observed symbol
    bigrams, [pi] from the symbol frequencies, and [c] from attributing
    each loss to its nearest surviving neighbour's symbol.  Starting EM
    here avoids a degenerate optimum in sparse-loss traces where a
    rarely-observed symbol absorbs all losses; {!fit} always starts
    here. *)

val fit :
  ?eps:float ->
  ?max_iter:int ->
  ?restarts:int ->
  rng:Stats.Rng.t ->
  n:int ->
  m:int ->
  Em.observation array ->
  Em.model * Em.fit_stats
(** EM (Appendix B), [b] fixed: {!Em.fit_informed} over [restarts]
    (default 2) jittered {!init_informed} starts, each accelerated by
    SQUAREM ({!Em.fit_from}) until one EM step's largest parameter
    change is at most [eps] (default 1e-3, the paper's threshold) or
    [max_iter] (default 300) sweeps have run. *)

val fit_from :
  ?eps:float -> ?max_iter:int -> Em.model -> Em.observation array -> Em.model * Em.fit_stats
(** EM from an explicit starting point, on the calling domain's
    workspace. *)

val simulate : Stats.Rng.t -> Em.model -> len:int -> Em.observation array * int array
(** Draw a sequence from the model ({!Em.validate}d first); returns
    (observations, flattened states).  The symbol is read off the
    state, so each step draws only the loss and the next state. *)
