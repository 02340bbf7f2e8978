(** TCP Reno/NewReno over the simulated network, at segment
    granularity.

    The sender implements slow start, congestion avoidance, fast
    retransmit after three duplicate ACKs, Reno fast recovery (any new
    ACK ends recovery; remaining holes are recovered by further fast
    retransmits or the timer), an RFC 6298 retransmission timer with
    Karn's algorithm and exponential backoff.  The receiver buffers
    out-of-order segments and returns cumulative ACKs.  This mirrors
    the ns TCP agents driving the paper's cross traffic closely enough
    to produce the bursty, closed-loop queue dynamics the probes
    observe. *)

type config = {
  mss : int;  (** payload bytes per segment *)
  header : int;  (** header bytes added to data segments *)
  ack_size : int;  (** bytes of a pure ACK *)
  initial_cwnd : float;  (** segments *)
  initial_ssthresh : float;  (** segments *)
  min_rto : float;
  max_rto : float;
}

type t
(** A connection: sender agent at [src], receiver agent at [dst]. *)

val create :
  ?config:config -> ?flow:int -> Netsim.Net.t -> src:int -> dst:int -> unit -> t
(** Creates both endpoints and registers their packet handlers.  The
    connection is idle until {!supply} or {!set_unlimited} provides
    data and {!start} is called. *)

val flow : t -> int

val start : t -> unit
(** Begin transmitting at the current simulation time. *)

val supply : t -> int -> unit
(** Add [n] segments to the application backlog. *)

val set_unlimited : t -> unit
(** Greedy source (FTP): the backlog never empties. *)

val on_complete : t -> (unit -> unit) -> unit
(** Called once when every supplied segment has been cumulatively
    acknowledged.  Never called for unlimited senders. *)

(** {1 Introspection (sender side unless noted)} *)

val cwnd : t -> float
val ssthresh : t -> float
val rto : t -> float
val highest_acked : t -> int
val segments_sent : t -> int
(** Transmissions, including retransmissions. *)

val retransmissions : t -> int
val timeouts : t -> int
val delivered_in_order : t -> int
(** Receiver side: segments delivered to the application in order. *)
