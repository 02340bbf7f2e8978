(** Adaptive RED active queue management (Floyd, Gummadi, Shenker
    2001), in gentle mode, operating on queue length in packets — the
    configuration used in Section VI-A5 of the paper.

    The drop probability ramps linearly from 0 to [max_p] as the EWMA
    average queue size grows from [min_th] to [max_th], and (gentle
    mode) from [max_p] to 1 between [max_th] and [2*max_th].  [max_p]
    itself starts at 0.1 and adapts by AIMD every 0.5 s to keep the
    average queue between the 40% and 60% points of
    [\[min_th, max_th\]].  The average is an EWMA with gain 0.002. *)

type t

val create : min_th:float -> max_th:float -> mean_pkt_time:float -> unit -> t
(** [mean_pkt_time] is the typical packet transmission time, used to
    age the average across idle periods.  Requires
    [0 < min_th < max_th]. *)

val decide : t -> rng:Stats.Rng.t -> qlen:int -> now:float -> bool
(** [decide t ~rng ~qlen ~now] updates the average with the current
    instantaneous queue length [qlen] (packets) and returns [true] when
    the arriving packet must be dropped.  Mutates the AQM state. *)

val drop_probability : t -> qlen:int -> now:float -> float
(** Probability that {!decide} would drop right now, {e without}
    mutating any state (the between-drops count correction is not
    applied).  Used by transparent probes. *)

val note_idle_start : t -> now:float -> unit
(** Record that the queue just went empty, for idle-time aging. *)

val avg : t -> float
(** Current average queue estimate (packets). *)

val max_p : t -> float
