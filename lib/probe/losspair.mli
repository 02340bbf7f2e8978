(** The loss-pair baseline (Liu & Crovella, IMW 2001), the empirical
    alternative the paper compares its model-based approach against.

    Two back-to-back probes are sent every [pair_interval] seconds.
    When exactly one of the two is lost, the surviving probe's queuing
    delay is taken as a sample of the lost probe's (virtual) queuing
    delay — the loss-pair assumption that both packets saw the same
    queues.  The maximum queuing delay of the congested link is then
    read off the peak of the sample distribution. *)

type t

val create :
  ?size:int ->
  ?gap:float ->
  Netsim.Net.t ->
  src:int ->
  dst:int ->
  pair_interval:float ->
  unit ->
  t
(** [gap] is the intra-pair spacing; by default the serialization time
    of the probe on the slowest path link (true back-to-back spacing
    after the pair has been serialized once). *)

val start : t -> at:float -> until:float -> unit
(** Send a pair at [at +. float i *. pair_interval] for [i = 0, 1, ...]
    up to (excluding) [until], the second probe [gap] seconds after the
    first.  The window is one {!Netsim.Sim.every} stream, so the engine
    holds one pending pair launch for it (plus a pending second probe
    within a pair), not the whole window. *)

val pairs_sent : t -> int
val loss_pairs : t -> int
(** Pairs in which exactly one probe was lost. *)

val both_lost : t -> int

val samples : t -> float array
(** Surviving-probe queuing delays (end–end delay minus the path's
    queuing-free delay), one per loss pair, in send order. *)

val estimate_max_queuing_delay : ?bins:int -> t -> float option
(** Peak (mode) of the loss-pair sample histogram ([bins] default 40):
    the loss-pair estimate of the dominant link's [Q_k].  [None] when
    no loss pair was observed. *)
