(** A pathchar-style per-hop capacity estimator (Jacobson 1997 /
    Downey 1999) — the tool the paper uses (as "pchar") to
    cross-validate its Internet identifications: "results from pchar
    indicate that one link has much lower bandwidth than others, which
    is consistent with our identification" (Section VI-B).

    Method: for each hop [h], send probes of several sizes with
    [ttl = h]; the router at hop [h] discards each probe and returns a
    small time-exceeded reply.  The {e minimum} round-trip time over
    many probes of size [s] is (up to the size-independent return
    path)

      [min_rtt(h, s) = sum_{i<=h} (s * 8 / C_i + d_i) + const]

    so a least-squares line through the per-size minima has slope
    [sum_{i<=h} 8 / C_i].  Differencing consecutive hops' slopes gives
    each link's capacity [C_h]; differencing intercepts gives its
    latency. *)

type hop = {
  index : int;  (** 1-based hop number *)
  replies : int;  (** time-exceeded replies received *)
  slope : float option;  (** fitted cumulative seconds/byte, if enough data *)
  capacity : float option;  (** estimated link bandwidth, bits/s *)
  latency : float option;  (** estimated one-way fixed delay, seconds *)
}

type result = {
  hops : hop array;
  narrow_hop : int option;
      (** 1-based hop with the smallest estimated capacity — the
          "narrow link" of the path *)
}

val run :
  ?probes_per_size:int ->
  Netsim.Net.t ->
  src:int ->
  hops:int ->
  dst:int ->
  k:(result -> unit) ->
  unit
(** [run net ~src ~hops ~dst ~k] probes hops [1..hops] of the route
    from [src] toward [dst] and calls [k] with the estimates once all
    probes have been answered or timed out.  Probes start at the
    current simulation time, spaced 30 ms apart (wide enough that
    probes do not queue behind each other on slow links), cycling
    through the sizes 200..1400 step 300 bytes with [probes_per_size]
    repetitions (default 16).  Estimates are [None] for hops with too
    few replies or non-increasing slopes (pathchar's own failure mode
    on noisy paths). *)

val fit_min_line : (int * float) list -> (float * float) option
(** Least-squares line through (size, min-RTT) points:
    [(slope, intercept)]; [None] with fewer than two points.  Exposed
    for tests. *)
