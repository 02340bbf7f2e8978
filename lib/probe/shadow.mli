(** Transparent probe traversal — the paper's {e virtual probe}
    (Section III) made executable.

    A shadow probe walks the path hop by hop in simulated time, reading
    each link's live queue state at its arrival instant, but occupies
    no buffer space and consumes no bandwidth.  At each link it records
    the queuing delay it would have experienced; if the link would drop
    it (droptail buffer overflow, or a RED early-drop draw) and it
    carries no loss mark yet, it records the link's maximum queuing
    delay [Q_k] and marks itself lost — exactly the paper's
    definition.  A marked probe keeps traversing the remaining links,
    which yields the virtual queuing delay of a lost probe. *)

type result = {
  sent_at : float;
  hop_queuing : float array;
      (** queuing delay recorded at each hop, in path order; the
          loss-mark hop contributes its [Q_k] (droptail) or its current
          backlog (RED early drop) *)
  loss_hop : int option;  (** index into the path of the loss mark *)
  base_delay : float;
      (** propagation plus per-hop probe transmission time: the
          queuing-free end-end delay *)
}

val base_delay : size:int -> Netsim.Link.t list -> float
(** Queuing-free delay of a [size]-byte packet over the path. *)

val launch :
  Netsim.Net.t ->
  path:Netsim.Link.t list ->
  size:int ->
  rng:Stats.Rng.t ->
  k:(result -> unit) ->
  unit
(** Send a shadow probe now: it reads the first link's state at
    [Sim.now] before returning, and [k] runs at the (virtual) arrival
    instant with the completed record.  To send later, call it from an
    event scheduled at the departure time ({!Netsim.Sim.at},
    {!Netsim.Sim.every}).  [rng] resolves probabilistic RED drop
    decisions. *)

val total_queuing : result -> float
(** Sum of per-hop queuing delays — the probe's (virtual) end-end
    queuing delay [Y]. *)

val end_to_end_delay : result -> float
(** [base_delay + total_queuing]. *)
