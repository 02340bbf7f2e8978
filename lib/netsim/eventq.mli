(** Pending-event set of the discrete-event engine: a binary min-heap
    keyed by ([time], [seq]) where [seq] is an insertion counter, so
    simultaneous events fire in insertion order and runs are
    deterministic.  The heap is stored as parallel arrays (times
    unboxed in a [float array], sequence numbers, payloads), so reading
    the earliest time and popping allocate nothing. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val fresh_seq : 'a t -> int
(** Take the next insertion number. *)

val push : 'a t -> time:float -> seq:int -> 'a -> unit
(** Insert an event at absolute [time] under a number taken with
    {!fresh_seq}: among events at [time] it fires where it would had it
    been pushed when [seq] was taken.  At most one pending event may
    hold a given [seq]. *)

val min_time : 'a t -> float
(** Time of the earliest event; [infinity] when the queue is empty. *)

val pop : 'a t -> 'a
(** Remove the earliest event and return its payload (read its time
    with {!min_time} first).  Raises [Invalid_argument] when the queue
    is empty. *)
