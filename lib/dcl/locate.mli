(** Pinpointing the dominant congested link — the paper's stated
    future work ("we will investigate how to pinpoint a dominant
    congested link after identifying such a link exists",
    Section VII).

    The idea: run the identification on {e path prefixes} (probes to
    intermediate routers — obtainable with TTL-limited probes against
    routers that answer, or with cooperating vantage points).  Losses
    on the prefix to router [r_k] are exactly the losses at links
    [1..k], so as [k] grows the prefix "acquires" the dominant link at
    one specific hop:

    - prefixes ending before the dominant link see few or none of the
      losses (not identifiable, or no dominant link);
    - every prefix from the dominant link onward sees essentially the
      full loss process and identifies a dominant congested link.

    The dominant link is therefore the first prefix length at which the
    conclusion switches to dominant and stays there. *)

type prefix = {
  hops : int;  (** prefix length in links *)
  conclusion : Identify.conclusion option;
      (** [None] when the prefix trace was not identifiable *)
  loss_rate : float;
}

val pinpoint : prefix list -> int option
(** [pinpoint prefixes] returns the 1-based hop of the dominant
    congested link: the smallest prefix length whose conclusion is
    dominant such that all longer prefixes are dominant too.  [None]
    when no such suffix exists (no dominant link, or inconsistent
    prefix results).  The input may be in any order. *)

val analyze : rng:Stats.Rng.t -> (int * Probe.Trace.t) list -> prefix list * int option
(** [analyze ~rng traces] runs the identification with
    {!Identify.default_params} on each [(hops, trace)] prefix
    measurement and {!pinpoint}s the dominant link. *)
