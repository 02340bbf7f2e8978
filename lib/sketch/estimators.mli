(** Streaming per-path estimators for the triage front end.

    Everything here is single-writer scalar state — one value per
    monitored path, updated from the driver domain at push time — and
    fully deterministic: the same update sequence reproduces the same
    estimate bitwise. *)

(** Exponentially weighted moving average, e.g. of a path's per-batch
    loss fraction. *)
module Ewma : sig
  type t

  val make : alpha:float -> t
  (** Smoothing factor in (0, 1]; the first {!update} primes the value
      directly.  Raises [Invalid_argument] out of range. *)

  val update : t -> float -> unit
  (** [value <- (1 - alpha) * value + alpha * x] — written in that
      form so an [x = 0] update is bitwise [value * (1 - alpha)]. *)

  val coast : t -> int -> unit
  (** [coast t k] applies [k] missed zero-updates in one multiply by
      [(1 - alpha)^k]: equal to [k] explicit [update t 0.] calls up to
      rounding, for every [k].  A no-op before the first update.
      Raises [Invalid_argument] on negative [k]. *)

  val value : t -> float
  (** [0.] before the first update. *)

  val primed : t -> bool
end

(** Robbins-Monro p-quantile tracker: one float of state, one
    comparison and one power-of-two gain per observation.

    [q <- q + step_n * (p - 1{y <= q})] converges to the p-quantile of
    a stationary input; the gain [step_n] follows the 1/n schedule
    quantized to powers of two of the count, so no division runs per
    update.  Monotone by construction: an observation above the
    estimate can only raise it, one below can only lower it. *)
module Quantile : sig
  type t

  val make : p:float -> lo:float -> hi:float -> t
  (** Track the [p]-quantile (in (0, 1)) of inputs clamped to
      [\[lo, hi\]].  The gain starts at [(hi - lo) / 4] and halves at
      every count doubling past 16 observations, through 16 levels.
      Raises [Invalid_argument] on out-of-range parameters. *)

  val update : t -> float -> unit

  val value : t -> float
  (** Current estimate, clamped to [\[lo, hi\]]; [lo] before the first
      update. *)

  val elevation : t -> float
  (** [(value - lo) / (hi - lo)]: the estimate's normalized height
      above the range floor, in [\[0, 1\]] — the fleet gate's
      delay-quantile-drift signal (how far the path's delay quantile
      has climbed above its propagation floor). *)

  val count : t -> int
end
