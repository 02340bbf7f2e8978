(** Process-wide, domain-safe metrics registry and monotonic-clock
    spans — the observability layer of the identification stack.

    Instrumentation sites create metrics once at module initialization
    ({!Counter.make} and friends are idempotent: the same name+labels
    returns the same metric) and then record into them unconditionally;
    every recording operation first reads one process-global enabled
    flag and is a no-op returning immediately when collection is off.
    The disabled path performs no allocation: counters and gauges take
    immediate arguments, and spans communicate start times as plain
    [int] nanoseconds ({!Span.start} returns [0] when disabled), so no
    float or [int64] is ever boxed on behalf of a disabled metric.

    When enabled, the hot path stays lock-free: counter and histogram
    cells are per-domain-sharded [Atomic.t] slots (indexed by the
    calling domain's id, so pool workers never contend on a cache
    line), gauges are a single atomic cell, and float accumulation uses
    a compare-and-set loop.  The only mutex in the module guards metric
    {e registration}, which happens at module-load time.

    Collection is enabled by the [DCL_OBS] environment variable ([1],
    [true] or [yes]) or programmatically with {!set_enabled} (the
    binaries enable it when [--metrics] is passed).  Snapshots are
    exported as Prometheus text format ({!prometheus}) or JSON
    ({!json}); both iterate the registry in sorted order, so two dumps
    with no intervening events are byte-identical.

    Naming convention: [dcl_<layer>_<metric>], e.g.
    [dcl_em_iterations_total], [dcl_pool_queue_wait_seconds],
    [dcl_identify_stage_seconds{stage="fit"}]. *)

val enabled : unit -> bool
(** Whether collection is on.  A single atomic load. *)

val set_enabled : bool -> unit
(** Turn collection on or off at runtime.  Metrics recorded while
    enabled are retained across a disable/enable cycle. *)

type counter
type gauge
type histogram

module Counter : sig
  (** Monotonically increasing value, sharded per domain.  Carries an
      integer fast path ({!incr}/{!add}: one [Atomic.fetch_and_add])
      and a float side ({!add_float}, CAS loop) for second-valued
      totals such as busy time. *)

  val make : ?labels:(string * string) list -> ?help:string -> string -> counter
  (** [make name] registers (or retrieves) the counter [name] with the
      given label set.  Idempotent per (name, labels); re-registering
      the same key as a different metric kind raises
      [Invalid_argument]. *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  val add_float : counter -> float -> unit

  val value : counter -> float
  (** Sum over all shards (integer and float sides). *)
end

module Gauge : sig
  (** A value that can go up and down; one atomic cell. *)

  val make : ?labels:(string * string) list -> ?help:string -> string -> gauge
  val set : gauge -> float -> unit

  val set_max : gauge -> float -> unit
  (** Raise the gauge to [v] if [v] is larger — high-water marks. *)

  val value : gauge -> float
end

module Histogram : sig
  (** Fixed-bucket histogram (Prometheus semantics: bucket [i] counts
      observations [<= uppers.(i)], cumulative on export, plus a
      [+Inf] overflow bucket, a total count and a sum).  Bucket counts
      are per-domain-sharded atomics. *)

  val make :
    ?labels:(string * string) list ->
    ?help:string ->
    ?buckets:float array ->
    string ->
    histogram
  (** [buckets] must be strictly increasing (default: log-ish spacing
      from 1 µs to 60 s, suited to everything from a single EM sweep to
      a full pipeline stage).  Idempotent like {!Counter.make}. *)

  val observe : histogram -> float -> unit

  val bucket_index : histogram -> float -> int
  (** Index of the bucket that would receive [v]: the smallest [i] with
      [v <= uppers.(i)], or [Array.length uppers] for the [+Inf]
      overflow bucket.  Exposed so tests can pin the boundary
      (inclusive upper edge) behaviour. *)

  val count : histogram -> int
  val sum : histogram -> float

  val bucket_counts : histogram -> (float * int) array
  (** Cumulative [(upper_bound, count <= upper_bound)] pairs ending
      with [(infinity, count)], as Prometheus exports them. *)

  val quantile : histogram -> float -> float
  (** Prometheus-style [histogram_quantile]: the bucket holding rank
      [q * count], linearly interpolated inside the bucket (lower edge
      0 for the first bucket).  A rank landing on the cumulative
      boundary of an {e empty} bucket — [q = 0.] with empty leading
      buckets, for instance — resolves to the lower edge of the first
      occupied bucket at or after it, where the observations actually
      are.  A rank falling in the [+Inf] overflow bucket clamps to the
      largest finite upper bound (including when the overflow bucket
      is the only occupied one); [nan] on an empty histogram.  Raises
      [Invalid_argument] unless [q] is in [\[0, 1\]].  The estimate's resolution is the bucket width —
      intended for bench summaries (p50/p95/p99 of an epoch-latency
      histogram), not precise statistics. *)
end

module Span : sig
  (** Monotonic wall-clock timing of a region, recorded into a latency
      histogram.  The disabled path is one flag check per call and
      allocates nothing (times travel as immediate [int]
      nanoseconds). *)

  val now_ns : unit -> int
  (** CLOCK_MONOTONIC in integer nanoseconds; never allocates. *)

  val start : unit -> int
  (** [0] when collection is disabled, {!now_ns} otherwise. *)

  val stop : histogram -> int -> unit
  (** [stop h t0] observes the elapsed seconds since [t0] into [h]; a
      no-op when disabled or when [t0 = 0] (the span started while
      disabled). *)
end

(** {1 Export} *)

val prometheus : unit -> string
(** The registry as a Prometheus text-format snapshot ([# HELP] /
    [# TYPE] per family, metrics sorted by name then labels). *)

val json : unit -> string
(** The registry as a JSON object
    [{"counters": [...], "gauges": [...], "histograms": [...]}], same
    ordering as {!prometheus}. *)

val write : string -> unit
(** Write a snapshot to a destination: ["-"] prints Prometheus text to
    stdout; a path ending in [.json] writes JSON; any other path writes
    Prometheus text.  File writes are atomic: the snapshot lands in a
    temporary file in the destination's directory and is renamed over
    the target, so a concurrent reader never observes a truncated
    dump. *)

(** {1 Flight recorder} *)

module Trace : sig
  (** Per-domain-sharded, fixed-capacity ring-buffer flight recorder of
      structured events.  Independent of the metrics flag: tracing is
      enabled by the [DCL_TRACE] environment variable ([1] / [true] /
      [yes]) or {!set_enabled}.  The disabled path is one atomic flag
      load per call and allocates nothing — all emitters take immediate
      arguments (static-literal names, [int] payloads), which is why
      they come as concrete variants rather than optional parameters.

      When enabled, an emission claims a slot with one
      [Atomic.fetch_and_add] on its shard's cursor and mutates the
      preallocated slot in place: no allocation, no lock, no contention
      between domains (shard = domain id, as for metrics).  The ring
      overwrites oldest-first when full; {!emitted} keeps counting past
      the capacity so tests can detect wraparound.

      Determinism contract: the recorder only ever {e reads} the
      monotonic clock and writes its own rings — no instrumented
      computation observes trace state, so enabling tracing cannot
      change fingerprints or winners.

      Readers ({!events}, {!dump}, {!chrome_json}) must be quiescent
      with respect to emitters: call them from the driver between
      epochs, or after a pool job has returned. *)

  val enabled : unit -> bool
  val set_enabled : bool -> unit

  val set_capacity : int -> unit
  (** Replace the rings with fresh ones of per-shard capacity [n]
      (rounded up to a power of two; default 4096).  Discards recorded
      events; call while no other domain is emitting.  Raises
      [Invalid_argument] unless [n > 0]. *)

  val clear : unit -> unit
  (** Reset every shard's cursor; recorded events are forgotten. *)

  (** {2 Emitters}

      [name] should be a static string (it is stored by pointer); [arg]
      is a free integer payload (restart id, epoch, path index...);
      [detail] variants attach a second static string (a cause, a
      conclusion name).  [_at] variants take an explicit timestamp from
      {!Span.now_ns} for spans whose start was captured earlier. *)

  val span_begin : string -> int -> unit
  val span_begin_at : string -> int -> int -> unit
  val span_end : string -> unit
  val span_end_at : string -> int -> unit
  val instant : string -> int -> unit
  val instant_d : string -> string -> int -> unit
  val counter : string -> int -> unit

  (** {2 Introspection and export} *)

  val emitted : unit -> int
  (** Total events emitted since the last {!clear}, including those
      already overwritten by wraparound. *)

  val stored : unit -> int
  (** Events currently retained across all rings
      ([min emitted capacity] per shard). *)

  type phase = B | E | I | C

  type event = {
    ev_ts : int;
    ev_shard : int;
    ev_seq : int;
    ev_phase : phase;
    ev_name : string;
    ev_detail : string;
    ev_arg : int;
  }

  val events : unit -> event list
  (** The retained window, merged across shards and sorted by
      (timestamp, shard, sequence) — deterministic for a fixed ring
      state. *)

  val dump : unit -> string
  (** One line per event:
      [ts shard seq phase name arg=N \[detail=...\]], in {!events}
      order.  The deterministic text form tests assert against. *)

  val chrome_json : unit -> string
  (** The retained window as Chrome trace-event JSON
      ([{"traceEvents": [...]}]) loadable in Perfetto or
      chrome://tracing.  Timestamps in microseconds, tid = shard. *)

  val write : string -> unit
  (** ["-"] prints the text dump to stdout; a [.json] path writes
      {!chrome_json}; any other path writes {!dump}.  File writes are
      atomic as for {!Obs.write}. *)
end

(** {1 Runtime self-telemetry} *)

module Runtime : sig
  val sample : unit -> unit
  (** Record GC deltas since the previous call into the
      [dcl_runtime_*] gauges (minor/major words, minor/major
      collections, heap words) via [Gc.quick_stat].  Gated on the
      metrics flag.  Call from one domain only (the fleet driver calls
      it once per epoch); the previous-sample state is unsynchronized
      by design. *)
end

(** {1 Admin endpoint} *)

module Admin : sig
  (** Dependency-free blocking HTTP/1.1 admin server on a dedicated
      domain.  GET-only, one connection at a time,
      [Connection: close] — introspection plumbing, not a web
      server.

      Routes split in two: the [fast] callback answers on the server
      domain and must only touch domain-safe state (the metrics
      registry's atomics); any path it declines is parked on a pending
      queue that the driving thread serves with {!serve_pending},
      so driver-owned structures are only read from the domain that
      mutates them. *)

  type t

  val start :
    ?host:string -> port:int -> fast:(string -> (string * string) option) -> unit -> t
  (** Bind [host] (default ["127.0.0.1"]) on [port] (0 picks an
      ephemeral port — see {!port}) and spawn the server domain.
      [fast path] returns [Some (content_type, body)] to answer
      immediately, [None] to defer to {!serve_pending}.  Raises
      [Invalid_argument] for a port outside [\[0, 65535\]] and
      [Unix.Unix_error] if the bind fails. *)

  val port : t -> int
  (** The bound port (the actual one when [port:0] was requested). *)

  val serve_pending : t -> handle:(string -> (string * string) option) -> int
  (** Drain queued slow-route requests in arrival order: [handle path]
      returns [Some (content_type, body)] for a 200, [None] for a 404;
      an exception inside [handle] answers 500 and keeps serving.
      Returns the number of requests served.  Call from the driving
      domain. *)

  val stop : t -> unit
  (** Stop accepting, answer any still-queued request with 503, wake
      and join the server domain, close the socket.  Idempotent on the
      queue but call it once, from the domain that called {!start}. *)
end
