(* Persistent work pool over multicore domains.

   Worker domains are spawned once per process (lazily, on the first
   submission that wants them) and then reused for every subsequent
   job, so a fan-out site pays Domain.spawn/Domain.join once instead of
   on every call.  Keeping the domains alive also keeps their
   domain-local state — in particular the EM workspaces held in
   [Domain.DLS] by [Em.domain_ws] — warm across jobs.

   A job is a range [0 .. n-1] of independent items.  The caller
   submits it; the caller and up to [participants - 1] workers, one per
   seat of the job, pull index-range chunks off the job under a mutex,
   evaluate them, and the caller returns when every item has been
   evaluated.  Because each item writes only its own result slot, the
   result is independent of which domain ran which chunk; scheduling
   is dynamic but the outcome is deterministic. *)

type job = {
  run : int -> unit;
  n : int;
  chunk : int;
  mutable next : int; (* first unissued index; [n] once exhausted *)
  mutable in_flight : int; (* chunks currently being evaluated *)
  mutable seats : int; (* pool workers that may still join: participants - 1 *)
  mutable failed : (int * exn) option; (* lowest-index failure *)
  submitted_ns : int; (* Obs.Span.now_ns at submission; 0 when obs is off *)
  mutable busy_ns : int; (* total chunk-evaluation time (under [mutex]) *)
}

(* Telemetry (no-ops while Obs collection is disabled).  Per-chunk
   recording lives behind a single [Obs.enabled] check per chunk, so
   the scheduling hot path is untouched when observability is off. *)
let m_jobs = Obs.Counter.make ~help:"Pool jobs submitted" "dcl_pool_jobs_total"
let m_items = Obs.Counter.make ~help:"Pool items evaluated" "dcl_pool_items_total"

let m_chunks =
  Obs.Counter.make ~help:"Index-range chunks pulled off the job queue"
    "dcl_pool_chunks_total"

let m_queue_wait =
  Obs.Histogram.make
    ~help:"Delay between job submission and each participating domain's first chunk of it"
    "dcl_pool_queue_wait_seconds"

let m_workers =
  Obs.Gauge.make ~help:"Persistent worker domains spawned so far" "dcl_pool_workers"

let m_utilization =
  Obs.Gauge.make
    ~help:"Busy fraction of the participating domains during the last pool job"
    "dcl_pool_utilization_ratio"

let m_busy =
  Obs.Counter.make ~help:"Total chunk-evaluation time across all domains"
    "dcl_pool_busy_seconds_total"

(* Per-evaluating-domain item counters: one per worker (labeled by its
   spawn index) plus one for the submitting caller's own chunks. *)
let worker_items idx =
  Obs.Counter.make
    ~labels:[ ("worker", string_of_int idx) ]
    ~help:"Items evaluated per pool domain (caller = submitting domain)"
    "dcl_pool_worker_items_total"

let caller_items =
  Obs.Counter.make
    ~labels:[ ("worker", "caller") ]
    ~help:"Items evaluated per pool domain (caller = submitting domain)"
    "dcl_pool_worker_items_total"

let mutex = Mutex.create ()

(* Signalled when a job with unissued chunks is installed. *)
let work = Condition.create ()

(* Signalled when the last in-flight chunk of a job completes. *)
let idle = Condition.create ()

(* At most one job at a time; [submit] serializes callers. *)
(* lint: owner shared guarded-by mutex *)
let current : job option ref = ref None
let submit_mutex = Mutex.create ()
(* lint: owner shared guarded-by submit_mutex *)
let spawned = ref 0
(* lint: owner shared guarded-by submit_mutex *)
let handles : unit Domain.t list ref = ref []
(* lint: owner shared guarded-by mutex *)
let quit = ref false

(* Set while the current domain is evaluating chunks, so a nested
   submission from inside a job runs inline instead of deadlocking on
   [submit_mutex]. *)
let in_job_key = Domain.DLS.new_key (fun () -> ref false)

let inside_job () = !(Domain.DLS.get in_job_key)

let size () = max 1 (Domain.recommended_domain_count ())

(* Worker cap: machine size minus the participating caller, unless
   overridden (tests and benches raise it to exercise the concurrent
   path on small machines). *)
(* lint: owner driver *)
let capacity_override = ref None
let capacity () = match !capacity_override with Some c -> c | None -> size () - 1
let set_capacity c =
  if c <= 0 then invalid_arg "Pool.set_capacity: capacity must be positive";
  capacity_override := Some c

(* Pull and evaluate chunks of [j] until none are left.  Called (by
   workers and the submitting caller alike) with [mutex] held; returns
   with [mutex] held.  Item exceptions are recorded, never raised here:
   the job keeps the failure with the lowest item index, which is
   deterministic because chunks are issued in increasing index order —
   by the time item [i] is issued, every chunk containing a smaller
   index has been issued and will run to completion.  A domain calls
   this at most once per job, so the first chunk it pulls here is its
   pick-up of the job: only that chunk's start is a queue wait, since a
   later chunk's delay since submission includes the chunks this domain
   ran before it. *)
let eval_chunks ~items_c j =
  let flag = Domain.DLS.get in_job_key in
  flag := true;
  let first = ref true in
  while j.next < j.n do
    let lo = j.next in
    let hi = min j.n (lo + j.chunk) in
    j.next <- hi;
    j.in_flight <- j.in_flight + 1;
    Mutex.unlock mutex;
    let tr = Obs.Trace.enabled () in
    let t0 =
      if Obs.enabled () || tr then begin
        let t0 = Obs.Span.now_ns () in
        let picked_up = !first && j.submitted_ns <> 0 in
        if Obs.enabled () then begin
          if picked_up then
            Obs.Histogram.observe m_queue_wait
              (float_of_int (t0 - j.submitted_ns) *. 1e-9);
          Obs.Counter.incr m_chunks;
          Obs.Counter.add m_items (hi - lo);
          Obs.Counter.add items_c (hi - lo)
        end;
        if tr then begin
          (* The queue-wait span reconstructs the gap between job
             submission and this domain picking the job up, on the
             shard of that domain; arg = first item index. *)
          if picked_up then begin
            Obs.Trace.span_begin_at "pool.queue_wait" lo j.submitted_ns;
            Obs.Trace.span_end_at "pool.queue_wait" t0
          end;
          Obs.Trace.span_begin_at "pool.chunk" lo t0
        end;
        t0
      end
      else 0
    in
    first := false;
    let err =
      let i = ref lo in
      try
        while !i < hi do
          j.run !i;
          incr i
        done;
        None
      with e -> Some (!i, e)
    in
    if tr then Obs.Trace.span_end "pool.chunk";
    (* lint: allow R9 hand-over-hand: eval_chunks runs with [mutex] held at loop entry and exit; this reacquire pairs with the release at the top of the loop *)
    Mutex.lock mutex;
    if t0 <> 0 then begin
      let d = Obs.Span.now_ns () - t0 in
      j.busy_ns <- j.busy_ns + d;
      Obs.Counter.add_float m_busy (float_of_int d *. 1e-9)
    end;
    j.in_flight <- j.in_flight - 1;
    (match err with
    | None -> ()
    | Some (i, e) ->
        (match j.failed with
        | Some (i0, _) when i0 <= i -> ()
        | _ -> j.failed <- Some (i, e));
        (* Stop issuing further chunks; in-flight ones drain. *)
        j.next <- j.n)
  done;
  flag := false;
  if j.in_flight = 0 then Condition.broadcast idle

let rec worker_loop items_c =
  (* lint: allow R9 both match arms unlock; eval_chunks records item exceptions instead of raising (see its header comment) *)
  Mutex.lock mutex;
  let job = ref None in
  while
    (match !current with
    | Some j when j.next < j.n && j.seats > 0 ->
        j.seats <- j.seats - 1; job := Some j
    | _ -> ());
    !job = None && not !quit
  do
    Condition.wait work mutex
  done;
  match !job with
  | None -> Mutex.unlock mutex (* quitting *)
  | Some j ->
      eval_chunks ~items_c j;
      Mutex.unlock mutex;
      worker_loop items_c

let shutdown () =
  Mutex.lock mutex;
  quit := true;
  Condition.broadcast work;
  Mutex.unlock mutex;
  List.iter Domain.join !handles;
  handles := []

(* Called with [submit_mutex] held (submissions are serialized, so no
   two domains race to spawn). *)
let ensure_workers want =
  let want = min want (capacity ()) in
  if !spawned = 0 && want > 0 then at_exit shutdown;
  while !spawned < want do
    (* Create the worker's item counter on the spawning domain: metric
       registration takes the registry mutex, which the worker loop
       itself never needs to touch. *)
    let items_c = worker_items !spawned in
    handles := Domain.spawn (fun () -> worker_loop items_c) :: !handles;
    incr spawned
  done;
  Obs.Gauge.set m_workers (float_of_int !spawned)

let run ~chunk ~participants n runit =
  if chunk <= 0 then invalid_arg "Pool.run: chunk must be positive";
  if n > 0 then
    if inside_job () then
      (* Nested submission from inside a pool job: run inline.  The
         outer job already owns the pool. *)
      for i = 0 to n - 1 do
        runit i
      done
    else begin
      Mutex.lock submit_mutex;
      let finished =
        (* [ensure_workers] can raise (domain spawn is resource-bound);
           never leave with the submission lock held. *)
        Fun.protect
          ~finally:(fun () -> Mutex.unlock submit_mutex)
          (fun () ->
            let participants = max 1 (min participants n) in
            ensure_workers (participants - 1);
            if !spawned = 0 || participants = 1 then None
            else begin
              let chunk = min chunk n in
              let submitted_ns =
                if Obs.enabled () || Obs.Trace.enabled () then Obs.Span.now_ns ()
                else 0
              in
              Obs.Counter.incr m_jobs;
              let j =
                {
                  run = runit;
                  n;
                  chunk;
                  next = 0;
                  in_flight = 0;
                  seats = participants - 1;
                  failed = None;
                  submitted_ns;
                  busy_ns = 0;
                }
              in
              (* lint: allow R9 eval_chunks records item exceptions instead of raising, and the Condition traffic around it is no-raise *)
              Mutex.lock mutex;
              current := Some j;
              Condition.broadcast work;
              eval_chunks ~items_c:caller_items j;
              while j.next < j.n || j.in_flight > 0 do
                Condition.wait idle mutex
              done;
              current := None;
              Mutex.unlock mutex;
              if submitted_ns <> 0 then begin
                (* Busy fraction of the domains that could have worked on the
                   job: evaluation time over concurrency * makespan. *)
                let wall = Obs.Span.now_ns () - submitted_ns in
                let concurrency = min participants (!spawned + 1) in
                if wall > 0 then
                  Obs.Gauge.set m_utilization
                    (float_of_int j.busy_ns
                    /. (float_of_int wall *. float_of_int concurrency))
              end;
              Some j
            end)
      in
      match finished with
      | None ->
          (* No workers to hand the job to (single-core machine, zero
             capacity or one participant): the caller evaluates every
             item itself.  Still a submitted pool job, so account for it. *)
          if Obs.enabled () then begin
            Obs.Counter.incr m_jobs;
            Obs.Counter.add m_items n;
            Obs.Counter.add caller_items n
          end;
          for i = 0 to n - 1 do
            runit i
          done
      | Some j -> (
          match j.failed with Some (_, e) -> raise e | None -> ())
    end
