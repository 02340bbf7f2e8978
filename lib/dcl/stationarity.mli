(** Stationarity screening for probe traces.

    The paper assumes "the loss and delay characteristics experienced
    by the probes are stationary" (Section III) and selects stationary
    20-minute segments from its hour-long Internet traces
    (Section VI-B).  This module provides the screening step: split the
    trace into blocks, compare per-block loss rates and delay
    distributions, and flag traces whose characteristics drift. *)

type block = {
  start_time : float;
  probes : int;
  loss_rate : float;
  median_delay : float;  (** of surviving probes; [nan] if none *)
}

type report = {
  blocks : block array;
  max_tv : float;
      (** largest pairwise total-variation distance between block delay
          distributions (over a common 10-symbol discretization) *)
  loss_rate_spread : float;  (** max - min block loss rate *)
  stationary : bool;
}

val check : Probe.Trace.t -> report
(** [check trace] splits the trace into 4 equal blocks and declares it
    stationary when every pairwise TV distance between block delay
    distributions is at most 0.3 and block loss rates differ by at most
    0.03.  Requires at least 8 probes and at least one surviving probe
    overall. *)

val pp_report : Format.formatter -> report -> unit
