(** Upper bounds on the maximum queuing delay [Q_k] of an identified
    dominant congested link (Section IV-B).

    All bounds are returned as actual queuing delays in seconds (the
    symbol's upper bin edge). *)

val sdcl_bound : Vqd.t -> float
(** For a strongly dominant congested link: the smallest delay value
    [d] with [F(d) >= 1/2].  Since all loss-marked probes satisfy
    [Y >= Q_k], any positive quantile of [F] upper-bounds [Q_k]; the
    median is the paper's choice. *)

val wdcl_bound : beta:float -> Vqd.t -> float
(** For a weakly dominant congested link with parameter [beta]: the
    smallest delay value [d] with [F(d) > beta] (Theorem 2 gives
    [F(Q_k^-) <= beta]). *)

val component_bound : Vqd.t -> float
(** The finer-grained heuristic for small [eps] (Section IV-B,
    illustrated in Fig. 7): among maximal runs of consecutive symbols
    whose probability exceeds 0.005, take the run with the largest
    total mass — the "connected component with most of the mass" — and
    return the delay value of its first symbol.  Meant to be used with a fine discretization (M = 40 in
    the paper). *)

val components : Vqd.t -> (int * int * float) list
(** The maximal runs the heuristic considers: (first symbol, last
    symbol, total mass), 0-based, in symbol order.  Exposed for
    reporting and tests. *)
