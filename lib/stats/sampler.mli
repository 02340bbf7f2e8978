(** Random-variate samplers used by the traffic generators and model
    initialization.  Every sampler takes the {!Rng.t} to draw from as
    its first argument. *)

val uniform : Rng.t -> lo:float -> hi:float -> float
(** Uniform on [\[lo, hi)].  Requires [lo <= hi]. *)

val exponential : Rng.t -> rate:float -> float
(** Exponential with rate [rate] (mean [1 /. rate]).  Requires
    [rate > 0]. *)

val pareto : Rng.t -> shape:float -> scale:float -> float
(** Pareto (type I) with shape [alpha] and minimum value [scale]:
    [P(X > x) = (scale /. x) ** shape] for [x >= scale].  Used for
    heavy-tailed HTTP object sizes.  Requires both positive. *)

val bernoulli : Rng.t -> p:float -> bool
(** [true] with probability [p]. *)

val categorical : Rng.t -> float array -> int
(** [categorical rng w] draws an index proportionally to the
    non-negative weights [w].  Requires a positive total weight. *)

val dirichlet_like : Rng.t -> int -> float array
(** [dirichlet_like rng n] returns a random stochastic vector of length
    [n] (normalized i.i.d. uniforms, bounded away from zero).  Used to
    randomize EM starting points. *)
