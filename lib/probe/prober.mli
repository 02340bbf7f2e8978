(** Periodic end–end prober (the paper's measurement process): one
    [size]-byte probe every [interval] seconds from [src] to [dst],
    implemented as transparent {!Shadow} probes so each record carries
    both the real-probe observation (delay, or loss when the probe is
    marked lost) and the virtual-probe ground truth. *)

type t

val create :
  ?size:int -> Netsim.Net.t -> src:int -> dst:int -> interval:float -> unit -> t
(** Default probe size: 10 bytes (the paper's).  Routes must already be
    computed. *)

val start : t -> at:float -> until:float -> unit
(** Send probes at [at +. float i *. interval] for [i = 0, 1, ...] up
    to (excluding) [until].  The window is one {!Netsim.Sim.every}
    stream, so the engine holds one pending launch for it, not the
    whole window.  Results accumulate as the simulation runs. *)

val trace : t -> Trace.t
(** Snapshot of the completed probes, in send order.  Call after the
    simulation has run past [until] plus the path delay. *)
