(** Persistent work pool over multicore domains.

    Worker domains are spawned once per process — lazily, on the first
    submission that asks for them, and never more than
    [Domain.recommended_domain_count () - 1] (the submitting caller is
    the remaining participant).  They stay alive until process exit,
    so repeated fan-outs pay [Domain.spawn]/[Domain.join] once instead
    of per call, and per-domain state held in [Domain.DLS] (notably the
    EM workspaces of [Em.domain_ws]) stays warm across jobs.

    A job is a range of [n] independent items.  Chunks of the range are
    handed to workers through a mutex/condition queue; the caller
    participates and returns only when every item has run.  Items must
    write disjoint state (typically: each item fills its own slot of a
    result array), which makes the job's outcome independent of the
    dynamic chunk schedule.

    Exceptions raised by items are re-raised in the caller after the
    job drains; when several items fail, the exception of the {e
    lowest} item index is chosen, which is deterministic because chunks
    are issued in increasing index order.

    The fleet scheduler's tick ([Fleet.Scheduler]) is the library's one
    fan-out; every EM fit runs serially. *)

val run : ?chunk:int -> participants:int -> int -> (int -> unit) -> unit
(** [run ~participants n f] evaluates [f 0 .. f (n - 1)], using up to
    [participants] concurrent domains (the caller plus at most
    [participants - 1] pool workers, further capped by the machine
    size); returns when all items have run.  With no usable workers
    (single-core machine, or [participants <= 1]) the items run inline
    in the caller.  A nested [run] from inside an item also runs
    inline, so items may themselves use pool-backed operations safely.
    Jobs from different domains are serialized, not interleaved.

    [chunk] overrides the index-range chunk size pulled per queue
    round-trip (default: a quarter of an even split, at least 1).  A
    small fixed chunk bounds the straggler tail of jobs with many
    cheap, unevenly-costed items — the fleet scheduler's shape — at
    the price of more queue traffic.  Chunking never affects results,
    only scheduling.  Raises [Invalid_argument] unless positive. *)

val size : unit -> int
(** [Domain.recommended_domain_count ()] (at least 1): the maximum
    useful number of participants. *)

val capacity : unit -> int
(** Current worker cap: the [set_capacity] override when one is in
    force, [size () - 1] otherwise. *)

val set_capacity : int -> unit
(** Override the worker cap (default [size () - 1]).  Raises
    [Invalid_argument] unless the new cap is positive: a zero or
    negative override would silently serialize every job, which is
    indistinguishable from a passing concurrency test.  Raising it above
    the machine size oversubscribes cores — useful for exercising the
    concurrent path in tests and benches on small machines, a
    pessimization otherwise.  Lowering it does not retire workers
    already spawned. *)
