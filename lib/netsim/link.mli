(** A unidirectional link: a finite buffer (droptail or adaptive RED)
    in front of a FIFO server of rate [bandwidth], followed by a fixed
    propagation delay.

    The buffer capacity bounds the bytes {e waiting} for service; the
    packet in transmission has left the buffer.  The link's maximum
    queuing delay — the paper's [Q_k], "the time required to drain a
    full queue" — is therefore [capacity * 8 / bandwidth]. *)

type policy = Droptail | Red of Red.t

type t

val create :
  Sim.t ->
  id:int ->
  src:int ->
  dst:int ->
  bandwidth:float ->
  delay:float ->
  capacity:int ->
  ?mtu:int ->
  policy:policy ->
  unit ->
  t
(** [bandwidth] in bits/s, [delay] (propagation) in seconds, [capacity]
    in bytes.  All must be positive.

    [mtu] (default 1040 bytes) sets the drop granularity: an arrival is
    dropped when the waiting room cannot hold one more [mtu]-sized
    packet.  This emulates ns's packet-counting droptail queues — a
    10-byte probe is dropped exactly when a full-size packet would be —
    while keeping byte-accurate drain times. *)

val set_deliver : t -> (Packet.t -> unit) -> unit
(** Install the callback invoked when a packet finishes propagation and
    arrives at the downstream node. *)

val set_on_drop : t -> (Packet.t -> unit) -> unit

val set_on_accept : t -> (Packet.t -> unit) -> unit
(** Called when an arrival is accepted into the buffer (or straight
    into service) — an ns-2 enqueue event. *)

val set_on_transmit : t -> (Packet.t -> unit) -> unit
(** Called when a packet begins transmission — an ns-2 dequeue
    event. *)

val add_deliver_observer : t -> (Packet.t -> unit) -> unit
(** Run an extra callback (after the forwarding one) when a packet
    finishes propagation — an ns-2 receive event.  Composes; does not
    replace the callback installed by {!set_deliver}. *)

val offer : t -> Packet.t -> unit
(** Present an arriving packet to the buffer at the current simulation
    time: it is dropped (droptail overflow or RED early drop) or
    accepted for eventual transmission. *)

(** {1 Introspection} *)

val id : t -> int
val src : t -> int
val dst : t -> int
val bandwidth : t -> float
val prop_delay : t -> float
val policy : t -> policy

val unfinished_work : t -> float
(** Seconds until a packet arriving now would begin transmission:
    residual service time of the packet on the wire plus the drain time
    of the waiting buffer.  This is the queuing delay a (tiny) probe
    arriving now experiences. *)

val would_drop : t -> size:int -> float
(** Probability that a packet of [size] bytes offered now would be
    dropped: 0 or 1 for droptail, the current ramp probability for RED.
    Does not mutate any state. *)

val max_queuing_delay : t -> float
(** [capacity * 8 / bandwidth] — the paper's [Q_k]. *)

val transmission_time : t -> size:int -> float

(** {1 Counters} *)

val arrivals : t -> int
val drops : t -> int
val departures : t -> int
val busy_time : t -> float
(** Cumulated transmission time; divide by elapsed time for
    utilization. *)

val loss_rate : t -> float
(** [drops / arrivals]; 0 when idle. *)
