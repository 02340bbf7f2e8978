(** Minimal deterministic fork–join parallelism over multicore domains.

    Work items are indexed [0 .. n-1] and the result array is always in
    index order, so callers that pre-derive any per-item randomness (see
    {!Rng.split}) obtain results that are bit-identical regardless of
    [domains].  Exceptions raised by work items are re-raised in the
    calling domain after all workers have finished.

    The parallel path runs on the persistent domain pool ({!Pool}):
    domains are spawned once per process and reused, so repeated
    fan-outs (EM restart racing, window scanning, bootstrap replicates)
    do not pay [Domain.spawn]/[Domain.join] per call. *)

val map_range : domains:int -> int -> (int -> 'a) -> 'a array
(** [map_range ~domains n f] evaluates [f 0 .. f (n - 1)] on up to
    [domains] concurrent domains (clamped to [n]; [domains <= 1] runs
    in the calling domain with no parallelism) and returns [[| f 0; ...;
    f (n - 1) |]].  [f] must not share mutable state across items.
    Nested calls from inside [f] run serially in the calling domain. *)
