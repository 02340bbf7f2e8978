(** Delay discretization (Section V-A).

    End–end delays are mapped to [m] equal-width symbols over
    [\[lo, hi\]], where [lo] is the path propagation delay [P] (known,
    or approximated by the smallest observed delay) and [hi] is the
    largest observed delay.  Symbol [j] (0-based) covers end–end delays
    in [(lo + j*w, lo + (j+1)*w]]; equivalently queuing delays in
    [(j*w, (j+1)*w]].  Converting a symbol back to an actual delay uses
    the bin's upper edge, the paper's "actual delay value is j*w"
    convention (1-based there). *)

type t = {
  m : int;
  lo : float;  (** propagation-delay estimate [P] *)
  hi : float;  (** largest observed end–end delay *)
  width : float;
}

type prop_delay = Known of float | From_trace
(** How to obtain [P]: supplied externally, or estimated as the
    minimum observed delay of the trace (Section V-A / Fig. 14). *)

val of_trace : m:int -> prop_delay:prop_delay -> Probe.Trace.t -> t
(** Requires at least two distinct observed delays. *)

val of_range : m:int -> lo:float -> hi:float -> t

val symbol_of_delay : t -> float -> int
(** Clamped to [\[0, m-1\]]. *)

val symbol_of_queuing : t -> float -> int
(** Symbol of a queuing delay (relative to [lo]). *)

val queuing_value : t -> int -> float
(** Upper edge of the symbol's queuing-delay range: [(j+1) * width]. *)

val symbolize : t -> Probe.Trace.t -> int option array
(** Map a trace's probes, in order, to model inputs: [Some symbol] for a
    delay, [None] for a loss.  Allocates only the result array. *)
