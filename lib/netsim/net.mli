(** Topology, routing, and packet delivery: nodes connected by
    unidirectional {!Link}s, static minimum-hop next-hop routing, and a
    per-(node, flow) handler registry for delivering packets to
    transport agents. *)

type t

val create : Sim.t -> t
val sim : t -> Sim.t

val add_node : t -> string -> int
(** Register a node and return its id (dense, starting at 0). *)

val node_count : t -> int
val node_name : t -> int -> string

type queue_spec =
  | Droptail_q
  | Red_q of { min_th : float; max_th : float }
      (** thresholds in packets; the averaging time constant is derived
          from the link bandwidth assuming 1000-byte packets *)

val add_duplex :
  t ->
  a:int ->
  b:int ->
  bandwidth:float ->
  delay:float ->
  capacity:int ->
  ?queue:queue_spec ->
  unit ->
  Link.t * Link.t
(** Two symmetric links (a→b, b→a). *)

val compute_routes : t -> unit
(** (Re)build the minimum-hop next-hop tables.  Must be called after
    the topology is complete and before any traffic flows. *)

val path_links : t -> src:int -> dst:int -> Link.t list
(** The links a packet from [src] to [dst] traverses under the current
    routes.  Raises [Not_found] if unreachable or routes are stale. *)

val set_handler : t -> node:int -> flow:int -> (Packet.t -> unit) -> unit
(** Receive packets of [flow] addressed to [node].  The handler runs at
    packet arrival time. *)

val set_default_handler : t -> node:int -> (Packet.t -> unit) -> unit
(** Fallback sink for flows with no dedicated handler. *)

val inject : t -> Packet.t -> unit
(** Hand a freshly created packet to its source node for forwarding at
    the current simulation time. *)
