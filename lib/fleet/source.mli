(** Observation sources: where each path's per-epoch batches come
    from.

    A source is pull-based — the fleet driver asks for [len] more
    observations of a path when it schedules that path's next epoch —
    and runs entirely on the driver's domain, so determinism of the
    pooled tick is independent of the source.  Per-path state is O(1):
    the synthetic backend shares a handful of ground-truth templates
    across the whole fleet, and trace replay shares one symbolized
    trace. *)

type t

val scheme : t -> Dcl.Discretize.t
(** The discretization scheme the source's symbols are drawn from;
    fleet configs must be built against it. *)

val pull : t -> path:int -> len:int -> Em.observation array
(** The path's next [len] observations ([None] = lost probe).  Each
    call advances the path's position; the returned array is fresh and
    owned by the caller (safe to hand to {!Scheduler.push}).  Raises
    [Invalid_argument] on an out-of-range path or non-positive
    [len]. *)

val ground_truth : t -> int -> bool option
(** Whether the path's generator is a dominant-congestion template —
    [None] when the source has no ground truth (trace replay). *)

val congested_templates : templates:int -> fraction:float -> int
(** Number of congested generators a [fraction] requests out of
    [templates]: [round (fraction * templates)] through
    {!Stats.Float_cmp.round_to_int}, the single boundary decision
    behind {!synthetic}'s template split (exposed for property
    tests). *)

val synthetic :
  ?templates:int ->
  ?congested_fraction:float ->
  ?m:int ->
  rng:Stats.Rng.t ->
  paths:int ->
  unit ->
  t
(** A fleet-sized population sharing [templates] (default 8)
    ground-truth Markov-chain generators over [m] (default 5, min 3)
    delay symbols.  A [congested_fraction] (default 0.3) of the
    templates concentrate delay mass and losses at the top symbols
    (the strongly-dominant VQD shape); the rest split losses between a
    low- and a high-delay mode (the no-DCL shape).  Each path is
    assigned a template and an RNG split from [rng] at creation, so a
    seeded source replays bit-identically.  Raises [Invalid_argument]
    on out-of-range arguments. *)

val of_trace : ?m:int -> paths:int -> Probe.Trace.t -> t
(** Replay a recorded trace as [paths] replicas, symbolized once with
    an [m]-symbol (default 5, min 3) scheme fit to the trace
    ({!Dcl.Discretize.of_trace}).  Paths start at spread-out phase
    offsets and wrap around, so replicas decorrelate while every
    path's long-run statistics match the trace.  Path 0 starts at
    record 0, so [of_trace ~paths:1] is a straight replay: its pulls
    return [Dcl.Discretize.symbolize scheme trace] in order, and the pull after the last record wraps to
    record 0.  Raises [Invalid_argument] on [paths <= 0] or [m < 3],
    and wherever {!Dcl.Discretize.of_trace} does (e.g. fewer than two
    distinct delays). *)
