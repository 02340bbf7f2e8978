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

    States are flattened as [s = x * m + y]. *)

type t = {
  n : int;  (** hidden-dimension size *)
  m : int;  (** number of delay symbols *)
  pi : float array;  (** initial state distribution, length [n*m] *)
  a : float array array;  (** state transition matrix, [n*m]×[n*m] *)
  c : float array;  (** [c.(y)] = P(loss | delay symbol [y]) *)
}

type observation = int option

type fit_stats = Em.fit_stats = {
  iterations : int;
  log_likelihood : float;
  converged : bool;
  skipped_restarts : int;
      (** restarts discarded as degenerate by {!fit}; [0] from {!fit_from} *)
}

val states : t -> int
(** [n * m]. *)

val state_of : t -> hidden:int -> symbol:int -> int
val symbol_of : t -> int -> int
val hidden_of : t -> int -> int

val init_random : Stats.Rng.t -> n:int -> m:int -> loss_fraction:float -> t
(** The paper's initialization: random stochastic transition matrix,
    near-uniform [pi], and [c] seeded at the empirical loss rate. *)

val init_informed : Stats.Rng.t -> n:int -> m:int -> observation array -> t
(** Data-driven starting point: transitions from the observed symbol
    bigrams, [pi] from the symbol frequencies, and [c] from attributing
    each loss to its nearest surviving neighbour's symbol.  Starting EM
    here avoids a degenerate optimum in sparse-loss traces where a
    rarely-observed symbol absorbs all losses; {!fit} always includes
    this starting point. *)

val validate : t -> unit
val log_likelihood : t -> observation array -> float

val viterbi : t -> observation array -> int array * float
(** Most likely state sequence (flattened [(hidden, symbol)] states)
    given the observations, and its log probability.  At a loss instant
    the decoded state's symbol component is the single most likely
    virtual delay symbol — a point estimate complementing the Eq. (5)
    posterior. *)

val state_posteriors : t -> observation array -> float array array
(** [gamma.(t).(s)] = P(state [s] at [t] | observations). *)

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
(** EM (Appendix B) until the largest parameter change drops below
    [eps] (default 1e-3) or [max_iter] (default 300).  [restarts] (default 2)
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

val to_em : t -> Em.model
(** The flattened {!Em} view of the model ([s = n * m] states, fixed
    indicator emission matrix); exposed so benchmarks and tests can
    drive the shared kernel directly. *)

val virtual_delay_pmf : t -> observation array -> float array
(** Equation (5): [P(Y = j | loss)].  Requires at least one loss. *)

val simulate : Stats.Rng.t -> t -> len:int -> observation array * int array
