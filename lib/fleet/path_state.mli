(** Per-path streaming identification state.

    Each monitored path owns one value of {!t}: decayed EM sufficient
    statistics ({!Em.Incremental}), the current MMHD model, and the
    current SDCL/WDCL conclusion.  One {!update} per epoch performs one
    online-EM iteration over the path's new observation batch — decay
    by the forgetting factor [lambda], append the batch's statistics
    seeded from the carried filtered distribution, M-step — and then
    re-tests the hypothesis tests on the VQD read off the decayed loss
    counts ({!Em.Incremental.loss_mass} normalized, the streaming
    Eq. (5)).  Cost per epoch is O(batch), independent of how long the
    path has been monitored; memory per path is O(s^2) floats.

    The model family is the paper's recommended MMHD ([n] hidden
    components over the scheme's [m] symbols, indicator emission
    matrix); [n = 1] degenerates to the Markov ablation. *)

type config = {
  n : int;  (** hidden-dimension size *)
  lambda : float;  (** per-epoch forgetting factor in [\[0, 1\]] *)
  scheme : Dcl.Discretize.t;  (** its [m] delay symbols are the model's *)
}

val config : ?n:int -> ?lambda:float -> scheme:Dcl.Discretize.t -> unit -> config
(** Defaults: [n = 2], [lambda = 0.9] (an effective window of ten
    epochs).  Raises [Invalid_argument] on out-of-range values, a NaN
    [lambda] included.  Every path re-tests with
    {!Dcl.Identify.default_params} once it holds 64 decayed
    observations and a decayed loss mass of 1, and keeps its last 64
    diagnosis events ({!timeline}). *)

type t

val create : config -> rng:Stats.Rng.t -> t
(** Fresh untested path state.  [rng] must be the path's own pre-split
    stream: it seeds the informed model initialization, so two fleets
    built from equal-seeded RNGs evolve identically. *)

val update : ws:Em.workspace -> ?epoch:int -> t -> Em.observation array -> bool
(** Process one epoch's batch; returns whether the conclusion changed.
    An empty batch is a no-op.  Before the first delay observation
    arrives, batches are dropped (the informed initializer needs at
    least one delay); afterwards the model is re-estimated every
    epoch, and the tests re-run once the re-test gates (see {!config})
    are met.  A {!Em.Zero_likelihood} degeneracy resets the path to
    its untested state (counted in [dcl_fleet_path_resets_total] and
    {!resets}) instead of propagating.  [ws] is the calling domain's workspace
    ({!Em.domain_ws}).  Each non-dropped batch appends an entry
    to the path's {!timeline}, stamped with [epoch] (the scheduler's
    fleet epoch) when given, the path's own update count otherwise.
    Observations must lie in [\[0, m\]] ([m] a lost probe);
    {!Scheduler.push} checks this before a batch is queued. *)

val coast : t -> factor:float -> unit
(** Apply the decay the path missed while it was not being updated
    (e.g. demoted to sketch-only tracking): multiply the sufficient
    statistics by [factor] (= [lambda^k] for [k] skipped epochs), so
    re-promotion resumes from warm but correctly aged statistics.  A
    no-op before the first appended batch.  Raises [Invalid_argument] unless [factor] is in
    [\[0, 1\]]. *)

val conclusion : t -> Dcl.Identify.conclusion option
(** [None] until the test gates are first met (or after a reset). *)

val bound : t -> float option
(** Current [Q_max] upper bound (seconds) when a DCL is identified. *)

val vqd : t -> Dcl.Vqd.t option
(** The streaming VQD estimate, when enough decayed loss mass has
    accumulated. *)

val model : t -> Em.model option
val weight : t -> float
(** Effective (decayed) observation count behind the statistics. *)

val epochs : t -> int
val observations : t -> int
val resets : t -> int

val timeline : t -> Timeline.t
(** The path's bounded diagnosis history (verdict updates, gate
    transitions recorded by the scheduler, resets). *)
