(** Fleet epoch scheduler: drive the streaming identification of many
    concurrent paths over the persistent domain pool.

    The driver {!push}es observation batches onto paths as they arrive
    and calls {!tick} once per epoch.  A tick batches every active
    path's pending observations and fans one update per path —
    online-EM iteration plus SDCL/WDCL re-test ({!Path_state.update})
    — across {!Stats.Pool}, then emits conclusion transitions.

    {b Sketch gating.}  With [?gate] set, a triage front end tracks
    every path with O(1)-per-observation streaming state — a loss
    EWMA, a Robbins-Monro delay-quantile tracker ({!Sketch.Estimators})
    and an exact loss count halved every epoch — and only paths
    the gate promotes ({!Sketch.Gate.step}) accumulate pending batches
    and run full inference at {!tick}.  Quiet paths cost no EM work,
    hold no pending memory, and the pool fan-out is sized by the
    promoted count.  Promotion after sustained suspicion applies the
    catch-up decay [lambda^skipped] ({!Path_state.coast}) so the
    path's dormant statistics re-enter warm but correctly aged;
    demotion (calm and concluded [No_dominant] for the configured
    streak) keeps the model, conclusion and decayed statistics in
    place for the next warm re-promotion.

    {b Determinism contract.}  A pooled tick ([domains > 1]) is
    bit-identical to the serial one: each item writes only its own
    path's state and uses only the evaluating domain's workspace
    ({!Em.domain_ws}, sweep scratch that carries nothing between
    paths); each path draws from its own RNG
    pre-split at {!create}; and transitions are buffered per item and
    emitted after the pool drains in ascending path index, so the
    event order observers see is a pure function of the pushed
    observations.  The pool schedule chooses {e where} a path runs,
    never what it computes.  Gating preserves the contract: all
    sketch state updates happen at {!push} time on the driver's
    domain, and every gate signal is per path, so pushes to different
    paths never interact and the order in which paths are pushed
    within an epoch does not change any result. *)

type transition = {
  path : int;
  epoch : int;  (** the tick (0-based) that produced the change *)
  was : Dcl.Identify.conclusion option;
  now : Dcl.Identify.conclusion option;
}

type t

val create :
  ?domains:int ->
  ?on_transition:(transition -> unit) ->
  ?gate:Sketch.Gate.config ->
  rng:Stats.Rng.t ->
  paths:int ->
  Path_state.config ->
  t
(** A fleet of [paths] identical-config paths.  [domains] (default 1)
    pool participants evaluate each tick.  [on_transition] is called
    on the ticking domain, after the tick's updates complete, in
    ascending path index.  [gate] enables sketch gating: paths start
    in sketch-only tracking and run full inference only while
    promoted.  Each path's RNG is split from [rng] at creation, so
    equal seeds give bitwise-equal fleets regardless of [domains]. *)

val push : t -> path:int -> Em.observation array -> unit
(** Queue a batch for a path (consumed, not copied — the caller must
    not mutate it afterwards).  Empty batches are dropped.  When
    gated, the batch first updates the path's sketch estimators (and,
    once per epoch, its gate); a quiet path's batch is then absorbed
    by the sketches and dropped instead of queued.  Raises
    [Invalid_argument], with no state changed, on an out-of-range path
    index or an observation outside [\[0, m\]] ({!Em.check_symbols};
    [m] is a lost probe). *)

val tick : t -> int
(** Run one epoch over every path with pending observations; returns
    how many paths were updated.  Ticks with nothing pending still
    advance the epoch counter (and, when gated, still halve every
    path's loss count). *)

val path_count : t -> int
val epoch : t -> int
(** Number of {!tick}s run so far. *)

val path : t -> int -> Path_state.t
(** The path's live state (read-only by convention; raises
    [Invalid_argument] out of range). *)

val conclusion : t -> int -> Dcl.Identify.conclusion option
(** Shorthand for [Path_state.conclusion (path t i)]. *)

val promoted_count : t -> int
(** Paths currently promoted to full inference; [path_count] when the
    fleet is ungated. *)

type gate_stats = {
  promoted : int;  (** currently promoted *)
  promotions : int;  (** promotions since creation *)
  demotions : int;
  sketch_only_observations : int;
      (** observations absorbed by the sketches without full
          inference *)
}

val gate_stats : t -> gate_stats option
(** [None] when the fleet is ungated. *)

type gate_view = {
  promoted_path : bool;
  loss_ewma : float;  (** per-epoch loss-fraction EWMA *)
  drift : float;  (** delay-quantile elevation in [\[0, 1\]] *)
  loss_estimate : int;
      (** the path's decayed loss count: losses pushed, halved (floor)
          at every tick; zero proves a loss-free decayed window *)
}

val gate_view : t -> int -> gate_view option
(** The path's sketch-side state, for tests and operator dashboards;
    [None] when ungated.  Raises [Invalid_argument] out of range. *)

val fingerprint : t -> string
(** Order-sensitive hash over every path's model parameters,
    conclusion and statistics weight — plus, when gated, every path's
    gate and estimator state and the gating totals; any bitwise
    divergence between two fleets changes it.  Used by the
    determinism checks (serial tick must equal pooled tick). *)
