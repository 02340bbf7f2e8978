(** Ground-truth characterization of a trace's loss/delay regime from
    its virtual-probe records — the role ns internals play in the
    paper's validation.  Only meaningful for traces produced by the
    simulator (records carry [truth]). *)

type regime =
  | Strong  (** one hop takes (essentially) all losses and dominates delays *)
  | Weak of { hop : int; loss_share : float }
  | No_dominant

val loss_shares : Probe.Trace.t -> hop_count:int -> float array
(** Fraction of loss marks per path hop; zeros when there are no
    losses. *)

val dominant_hop : Probe.Trace.t -> hop_count:int -> (int * float) option
(** Hop with the largest loss share, if any loss occurred. *)

val delay_condition_fraction : Probe.Trace.t -> hop:int -> float
(** Among loss-marked probes lost at [hop], the fraction whose recorded
    queuing delay at [hop] is at least the sum over all other hops —
    the delay condition of Definitions 1–2 evaluated on the lost
    probes.  1.0 when there is no such probe. *)

val classify : Probe.Trace.t -> hop_count:int -> regime
(** Classify the regime from the hop with the largest loss share:
    [Strong] when its share is at least 0.995 and its delay-condition
    fraction at least 0.995; [Weak] when its share is at least 0.94,
    which is [1 - beta] at the paper's [beta = 0.06]; otherwise
    [No_dominant].  Traces without losses are [No_dominant]. *)

val pp_regime : Format.formatter -> regime -> unit
