(** ns-2-style packet event tracing.

    The paper's ground truth comes from "traces logged in ns"; this
    module is the equivalent instrument for our simulator: it logs
    per-packet events on selected links in the classic ns-2 trace
    format and parses such files back, so experiments can be debugged
    and post-processed the way ns experiments were.

    Format (one event per line):

      {v
+ 12.3456 0 1 tcp 1040 ---- 7 0.0 3.0 41 205
      v}

    columns: event ([+] enqueue, [-] dequeue, [d] drop, [r] receive),
    time, from-node, to-node, packet type, size, flags (unused,
    [----]), flow id, source node, destination node, sequence number,
    packet id. *)

type event_kind = Enqueue | Dequeue | Drop | Receive

type event = {
  kind : event_kind;
  time : float;
  from_node : int;
  to_node : int;
  packet_type : string;
  size : int;
  flow : int;
  src : int;
  dst : int;
  seq : int;
  packet_id : int;
}

type t
(** A collector accumulating events in memory until {!save}. *)

val create : unit -> t

val attach : t -> Sim.t -> Link.t -> unit
(** Log this link's events: enqueue/dequeue are approximated by offer
    acceptance and delivery ([r] at the downstream node), drops
    exactly. *)

val events : t -> event array
(** Events recorded so far, in chronological order. *)

val save : t -> string -> unit
(** Write the ns-2-format trace file. *)

val load : string -> (event array, string) result
(** Parse a file written by {!save} (or by ns-2, for the fields
    above).  [Error "FILE:LINE: Tracefile.load: ..."] on a malformed
    line, an unknown event, or a numeric field that does not parse
    fully or is not finite (node ids must also be integral); [Error]
    with the system message when the file cannot be opened or read. *)

val drops_per_flow : event array -> (int * int) list
(** (flow id, drop count) pairs, ascending by flow id — the kind of
    post-processing the paper's validation scripts did. *)
