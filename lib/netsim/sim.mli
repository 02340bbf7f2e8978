(** Discrete-event simulation engine: a clock and an event queue of
    closures.  Callbacks scheduled at the same instant fire in the
    order they were scheduled. *)

type t

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds an engine whose {!rng} is seeded with
    [seed] (default 1). *)

val now : t -> float
(** Current simulation time in seconds. *)

val rng : t -> Stats.Rng.t
(** The engine's root random stream; components should {!Stats.Rng.split}
    their own substreams from it at construction time. *)

val at : t -> float -> (unit -> unit) -> unit
(** [at t time f] schedules [f] at absolute [time].  Requires
    [time >= now t]. *)

val after : t -> float -> (unit -> unit) -> unit
(** [after t d f] schedules [f] at [now t +. d].  Requires [d >= 0]. *)

val every : t -> at:float -> period:float -> until:float -> (int -> unit) -> unit
(** [every t ~at ~period ~until f] runs [f i] at [at +. float i *. period]
    for each [i = 0, 1, ...] with that time before [until].  Each firing
    schedules the next before running [f], so the stream holds one
    pending event; a launch still fires, among events at its instant,
    where it would had the whole window been scheduled by this call.
    Requires [period > 0] and, unless the window is empty, [at >= now t]. *)

val run_until : t -> float -> unit
(** Execute events in order until the clock would pass the horizon;
    leaves the clock at the horizon.  Events scheduled exactly at the
    horizon are executed. *)

val run : t -> unit
(** Drain all events. *)

val fresh_packet_id : t -> int
val fresh_flow_id : t -> int
