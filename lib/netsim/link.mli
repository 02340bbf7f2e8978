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
  policy:policy ->
  unit ->
  t
(** [bandwidth] in bits/s, [delay] (propagation) in seconds, [capacity]
    in bytes.  All must be positive.

    The drop granularity is a 1040-byte MTU (a full TCP segment with
    its header): an arrival is dropped when the waiting room cannot
    hold one more MTU-sized packet.  This emulates ns's
    packet-counting droptail queues — a 10-byte probe is dropped
    exactly when a full-size packet would be — while keeping
    byte-accurate drain times. *)

val set_deliver : t -> (Packet.t -> unit) -> unit
(** Install the callback invoked when a packet finishes propagation and
    arrives at the downstream node. *)

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
