(** Promotion/demotion state machine with hysteresis — the per-path
    policy core of the sketch-gated triage front end.

    A path is {e Quiet} (tracked only by the O(1) sketch estimators) or
    {e Promoted} (running full incremental EM and SDCL/WDCL re-tests).
    Each epoch the owner feeds the machine three booleans distilled
    from the path's sketches and model:

    - [suspect]: a promotion signal crossed its threshold
      ({!suspect_cause} over the loss EWMA and delay-quantile
      elevation is [Some _]);
    - [calm]: every signal sits below 0.8 times its threshold — the
      hysteresis band that stops border-line paths from flapping;
    - [settled]: the full inference has a current no-dominant verdict.

    Promotion fires after [promote_after] consecutive suspect epochs.
    Demotion is deliberately more conservative: it needs [calm] AND
    [settled] for [demote_after] consecutive epochs, so delay-reactive
    cross-traffic that periodically suppresses its own congestion
    signal keeps its full-inference slot.  Any miss resets the streak. *)

type config = {
  loss_threshold : float;  (** promote when the loss EWMA reaches this *)
  drift_threshold : float;
      (** promote when the delay-quantile elevation reaches this *)
  promote_after : int;  (** consecutive suspect epochs before promotion *)
  demote_after : int;  (** consecutive calm+settled epochs before demotion *)
}

val config :
  ?loss_threshold:float ->
  ?drift_threshold:float ->
  ?promote_after:int ->
  ?demote_after:int ->
  unit ->
  config
(** Defaults: [loss_threshold = 0.2], [drift_threshold = 0.75],
    [promote_after = 2], [demote_after = 4].
    Raises [Invalid_argument] on out-of-range values. *)

type cause = Loss | Drift | Both
(** Which signal(s) reached their promotion threshold. *)

val cause_name : cause -> string
(** Static display name: ["loss-ewma"], ["drift"],
    ["loss-ewma+drift"].  Never allocates. *)

val suspect_cause : config -> loss:float -> drift:float -> cause option
(** [Some c] when either signal is at or above its promotion threshold
    (the epoch is suspect), naming which; [None] otherwise. *)

val calm : config -> loss:float -> drift:float -> bool
(** Both signals strictly below 0.8 times their thresholds. *)

type t
(** One path's gate state: promoted flag plus the current streak. *)

val create : unit -> t
(** Fresh Quiet gate. *)

val promoted : t -> bool

val streak : t -> int
(** Consecutive qualifying epochs toward the next transition. *)

type decision = Stay | Promote | Demote

val step : config -> t -> suspect:bool -> calm:bool -> settled:bool -> decision
(** Advance one epoch.  [Promote] and [Demote] are returned exactly on
    the epoch the state flips; the caller owns the side effects
    (moving the path on or off full inference). *)
