(** Emulated wide-area paths standing in for the paper's PlanetLab /
    Internet experiments (Section VI-B, Figs. 12–14).

    Each path is a router chain with heterogeneous link speeds, light
    bursty cross traffic on a few transit hops, and one (or, for the
    SNU path, two) congested low-bandwidth links.  One-way delays are
    measured by the same periodic prober as the ns-style experiments;
    receiver timestamps are then distorted with a constant clock skew
    and repaired with {!Clocksync} — mirroring the paper's tcpdump
    methodology, with the advantage that per-hop ground truth is
    available (it plays the role pchar plays in the paper). *)

type kind =
  | Ethernet_ufpr
      (** Cornell → UFPR: 11 hops, one congested link mid-path
          ("inside Brazil"), ~0.1% loss; WDCL-Test accepts (Fig. 12). *)
  | Adsl_from_ufpr
      (** UFPR → ADSL receiver: 15 hops, congested ADSL access link,
          ~0.1% loss; accepts (Fig. 13a). *)
  | Adsl_from_usevilla
      (** USevilla → ADSL receiver: 11 hops, ~0.7% loss; accepts
          (Fig. 13b) and drives the probing-duration study (Fig. 14). *)
  | Adsl_from_snu
      (** SNU → ADSL receiver: 20 hops, a second congested link
          mid-path (the paper's 13th hop) with a larger maximum queuing
          delay; WDCL-Test rejects (Fig. 13c). *)

val kind_to_string : kind -> string
val hop_count : kind -> int

type outcome = {
  trace : Probe.Trace.t;  (** true-clock trace, with ground truth *)
  skewed : Probe.Trace.t;  (** receiver-clock distorted *)
  repaired : Probe.Trace.t;  (** after {!Clocksync} skew removal *)
  skew_applied : float;  (** seconds/second *)
  skew_estimated : float;
  bottleneck_hop : int;  (** path hop index of the main congested link *)
  bottleneck_q_max : float;
  secondary_hop : int option;
  secondary_q_max : float option;
  loss_rate : float;
  pathchar : Pathchar.result option;
      (** per-hop capacity estimates from a concurrent pathchar
          campaign (the paper's pchar cross-validation), when
          requested *)
}

val run : ?seed:int -> ?duration:float -> ?with_pathchar:bool -> kind -> outcome
(** Default duration 1200 s (the paper's 20-minute stationary
    segments).  With [with_pathchar] (default false), a pathchar
    campaign runs concurrently with the probing and its estimates are
    returned — the paper's consistency check that the identified
    dominant link coincides with a low-bandwidth link. *)

(** {1 Clock helpers (exposed for tests)} *)

val repair_clock : Probe.Trace.t -> Probe.Trace.t * float
(** Estimate and remove the skew from the surviving probes' delays;
    returns the repaired trace and the estimated skew.  With fewer than
    two surviving probes there is no skew to estimate: the trace comes
    back unchanged, with skew 0. *)
