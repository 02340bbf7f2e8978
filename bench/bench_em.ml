(* EM kernel benchmark: serial fit wall-time and allocation per
   configuration over a fixed number of sweeps, sweeps and wall-time
   to convergence, and the per-observation cost of the forward pass
   and of a whole sweep, emitted as BENCH_em.json.

   The schema is documented in DESIGN.md ("BENCH_em.json").  The bench
   aborts (exit 1) if the timed fit's winner differs bitwise from the
   allocation run's winner on the same input, if a fixed-sweep fit
   stops before [max_iter], or if a to-convergence fit does not
   converge. *)

(* Monotonic wall time via the Obs clock stub: immune to NTP slews,
   and keeps the bench inside the R1 lint contract (no wall-clock
   reads outside lib/stats/rng.ml). *)
let time_of f =
  let t0 = Obs.Span.now_ns () in
  let r = f () in
  (r, float_of_int (Obs.Span.now_ns () - t0) *. 1e-9)

(* Gc.allocated_bytes counts the calling domain's allocation, which is
   the whole of a serial fit.  A minor collection inside the
   measured region inflates the delta on this runtime (promoted
   words end up counted on both sides of quick_stat), so empty the
   minor heap first and keep the smallest of three repeats: a
   collection-free repeat reports the true allocation. *)
let alloc_of f =
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to 3 do
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    let r = f () in
    let d = Gc.allocated_bytes () -. a0 in
    if d < !best then best := d;
    last := Some r
  done;
  (Option.get !last, !best)

let synth_obs ~seed ~n ~m ~t =
  let rng = Stats.Rng.create seed in
  let model =
    Mmhd.init_random rng ~n ~m ~loss_fraction:0.05
  in
  let obs, _ = Mmhd.simulate rng model ~len:t in
  (* EM needs at least one loss and one observation; the simulated loss
     fraction makes both overwhelmingly likely, but force the corner
     for tiny smoke sizes. *)
  obs.(0) <- None;
  obs.(1) <- Some 0;
  obs

let model_fingerprint (model : Em.model) =
  (* Order-sensitive fold over every fitted parameter: any bitwise
     difference between two fitted models changes the fingerprint. *)
  let h = ref 0L in
  let mix x =
    h := Int64.add (Int64.mul !h 1000003L) (Int64.bits_of_float x)
  in
  Array.iter mix model.Em.pi;
  Array.iter mix model.Em.a;
  Array.iter mix model.Em.c;
  !h

(* The per-observation-sweep allocation divides by the winner's
   [iterations * restarts], which counts every sweep only if every
   restart runs exactly [max_iter] sweeps.  [eps = 0] stops a restart
   only on a step that moves no parameter at all; the winner is checked
   too. *)
let check_full_sweeps ~what ~max_iter (stats : Em.fit_stats) =
  if stats.Em.iterations <> max_iter then begin
    Printf.eprintf "FATAL: %s stopped after %d of %d sweeps\n" what stats.Em.iterations
      max_iter;
    exit 1
  end

let run_case ~smoke ~t ~n buf first =
  let m = 5 and restarts = 4 in
  let max_iter = if smoke then 5 else 15 in
  let obs = synth_obs ~seed:(0x5EED + t + n) ~n ~m ~t in
  let fit () =
    let rng = Stats.Rng.create 42 in
    Mmhd.fit ~eps:0. ~max_iter ~restarts ~rng ~n ~m obs
  in
  (* Warm the domain workspace so the timed run measures the steady
     allocation-free state, not first-call buffer growth. *)
  ignore (fit ());
  let (model_alloc, stats), alloc = alloc_of fit in
  check_full_sweeps ~what:(Printf.sprintf "T=%d n=%d fit" t n) ~max_iter stats;
  let (model_timed, _), serial_s = time_of fit in
  if not (Int64.equal (model_fingerprint model_alloc) (model_fingerprint model_timed))
  then begin
    Printf.eprintf "FATAL: rerun winner differs from the first winner (T=%d n=%d)\n" t n;
    exit 1
  end;
  if not first then Buffer.add_string buf ",\n";
  Printf.bprintf buf
    "    {\"t\": %d, \"n\": %d, \"m\": %d, \"restarts\": %d, \"max_iter\": %d,\n\
    \     \"serial_seconds\": %.6f,\n\
    \     \"serial_alloc_bytes\": %.0f, \"alloc_bytes_per_obs_iter\": %.2f,\n\
    \     \"iterations\": %d, \"log_likelihood\": %.6f}"
    t n m restarts max_iter serial_s alloc
    (alloc /. float_of_int (t * stats.Em.iterations * restarts))
    stats.Em.iterations stats.Em.log_likelihood

(* --- Sweeps to convergence ---------------------------------------------

   One fit per case from one informed start at the default [eps] (1e-3)
   and [max_iter] (300), the fit every Identify restart runs, next to
   plain EM ([Em.em_step] repeated until one step moves no parameter
   by more than [eps]) from the same start: the sweeps the accelerated
   loop saves, and what they cost in wall time. *)

let plain_em ~ws ~eps ~max_iter t obs =
  let diff = Stats.Matrix.max_abs_diff in
  let rec go (t : Em.model) sweeps =
    let t' = Em.em_step ~ws ~update_b:false t obs in
    let change =
      Float.max (diff t.Em.pi t'.Em.pi)
        (Float.max (diff t.Em.a t'.Em.a) (diff t.Em.c t'.Em.c))
    in
    if change <= eps || sweeps >= max_iter then (t', sweeps, change <= eps)
    else go t' (sweeps + 1)
  in
  go t 1

let run_convergence ~t ~n buf first =
  let m = 5 and eps = 1e-3 and max_iter = 300 in
  let obs = synth_obs ~seed:(0xC0 + t + n) ~n ~m ~t in
  let t0 = Mmhd.init_informed (Stats.Rng.create 42) ~n ~m obs in
  let ws = Em.domain_ws () in
  let fit () = Em.fit_from ~ws ~eps ~max_iter ~update_b:false t0 obs in
  ignore (fit ());
  let (_, stats), seconds = time_of fit in
  let (plain, plain_sweeps, plain_converged), plain_seconds =
    time_of (fun () -> plain_em ~ws ~eps ~max_iter t0 obs)
  in
  let plain_ll = Em.log_likelihood ~ws plain obs in
  if not first then Buffer.add_string buf ",\n";
  Printf.bprintf buf
    "    {\"t\": %d, \"n\": %d, \"m\": %d, \"eps\": %g, \"max_iter\": %d,\n\
    \     \"sweeps\": %d, \"converged\": %b, \"log_likelihood\": %.6f, \"seconds\": %.6f,\n\
    \     \"plain_sweeps\": %d, \"plain_converged\": %b, \"plain_log_likelihood\": %.6f,\n\
    \     \"plain_seconds\": %.6f}"
    t n m eps max_iter stats.Em.iterations stats.Em.converged stats.Em.log_likelihood seconds
    plain_sweeps plain_converged plain_ll plain_seconds;
  Printf.eprintf "bench_em: to convergence T=%d n=%d: %d sweeps (plain EM %d)\n%!" t n
    stats.Em.iterations plain_sweeps;
  if not stats.Em.converged then begin
    Printf.eprintf "FATAL: T=%d n=%d fit did not converge in %d sweeps\n" t n max_iter;
    exit 1
  end

(* --- Kernel stages ------------------------------------------------------

   The two passes of a sweep, per observation: [Em.log_likelihood] runs
   the forward pass alone, [Em.em_step] the whole sweep (forward, then
   the backward pass that accumulates the E-step statistics, then the
   O(s^2 + s*m) M-step).  Both start from the same informed model and
   are timed alternately, [stage_repeats] times each after one warm-up
   call, so a slow phase of the host hits both alike; the median is the
   figure, the minimum and maximum its spread. *)

let stage_repeats = 21

let median_min_max runs =
  Array.sort compare runs;
  (runs.(stage_repeats / 2), runs.(0), runs.(stage_repeats - 1))

let run_stages ~t ~n buf first =
  let m = 5 in
  let obs = synth_obs ~seed:(0x5EED + t + n) ~n ~m ~t in
  let t0 = Mmhd.init_informed (Stats.Rng.create 42) ~n ~m obs in
  let ws = Em.domain_ws () in
  let forward () = ignore (Em.log_likelihood ~ws t0 obs) in
  let sweep () = ignore (Em.em_step ~ws ~update_b:false t0 obs) in
  forward ();
  sweep ();
  let ns f = snd (time_of f) *. 1e9 /. float_of_int t in
  let fwd_runs = Array.make stage_repeats 0. and sweep_runs = Array.make stage_repeats 0. in
  for k = 0 to stage_repeats - 1 do
    fwd_runs.(k) <- ns forward;
    sweep_runs.(k) <- ns sweep
  done;
  let fwd, fwd_lo, fwd_hi = median_min_max fwd_runs in
  let swp, swp_lo, swp_hi = median_min_max sweep_runs in
  if not first then Buffer.add_string buf ",\n";
  Printf.bprintf buf
    "    {\"t\": %d, \"n\": %d, \"m\": %d, \"repeats\": %d,\n\
    \     \"forward_ns_per_obs\": %.2f, \"forward_ns_per_obs_min\": %.2f, \"forward_ns_per_obs_max\": %.2f,\n\
    \     \"sweep_ns_per_obs\": %.2f, \"sweep_ns_per_obs_min\": %.2f, \"sweep_ns_per_obs_max\": %.2f}"
    t n m stage_repeats fwd fwd_lo fwd_hi swp swp_lo swp_hi;
  Printf.eprintf "bench_em: stages T=%d n=%d: forward %.1f ns/obs, sweep %.1f ns/obs\n%!" t n
    fwd swp

(* --- Instrumentation overhead (--obs) --------------------------------

   The EM sweep is the hottest instrumented region (one span plus the
   end-of-fit counters per fit), so it bounds the cost of the telemetry
   layer.  One serial fit is measured with collection disabled and then
   enabled; the smallest of several repeats cancels scheduler noise.
   The disabled run exercises exactly the shipped hot path (every Obs
   call is compiled in, each reduced to one flag check), so its
   alloc-per-observation-iteration figure is the steady-state number
   that must stay at zero. *)

let min_time_of ~repeats f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let _, s = time_of f in
    if s < !best then best := s
  done;
  !best

let run_obs ~smoke =
  let t = if smoke then 2_000 else 20_000 in
  let n = 2 and m = 5 and restarts = 4 in
  let max_iter = if smoke then 5 else 15 in
  let repeats = if smoke then 7 else 5 in
  let obs = synth_obs ~seed:0x0B5 ~n ~m ~t in
  let fit () =
    let rng = Stats.Rng.create 42 in
    Mmhd.fit ~eps:0. ~max_iter ~restarts ~rng ~n ~m obs
  in
  Obs.set_enabled false;
  ignore (fit ());
  let (_, stats), alloc_disabled = alloc_of fit in
  check_full_sweeps ~what:"--obs fit" ~max_iter stats;
  let disabled_s = min_time_of ~repeats fit in
  Obs.set_enabled true;
  ignore (fit ());
  let _, alloc_enabled = alloc_of fit in
  let enabled_s = min_time_of ~repeats fit in
  Obs.set_enabled false;
  (* --- tracing leg: the same fit with the flight recorder on (metrics
     off), then the fully-disabled allocation re-measured, proving the
     tracing instrumentation still costs nothing when off. *)
  Obs.Trace.set_capacity 8192;
  Obs.Trace.set_enabled true;
  ignore (fit ());
  let traced_s = min_time_of ~repeats fit in
  Obs.Trace.clear ();
  ignore (fit ());
  let trace_events = Obs.Trace.emitted () in
  Obs.Trace.set_enabled false;
  ignore (fit ());
  let _, alloc_disabled_after = alloc_of fit in
  let trace_overhead = (traced_s /. disabled_s) -. 1. in
  let obs_iters = t * stats.Em.iterations * restarts in
  let disabled_per_obs_iter = alloc_disabled /. float_of_int obs_iters in
  let disabled_after_per_obs_iter =
    alloc_disabled_after /. float_of_int obs_iters
  in
  let overhead = (enabled_s /. disabled_s) -. 1. in
  (* --- warm-workspace reuse, the Em.domain_ws pattern: each domain
     keeps one workspace and every fit it runs reuses it; here, fits
     over consecutive windows of one sequence.  The workspace only
     holds scaled forward/backward state — layout, not statistics — so
     reuse is bit-identical to a fresh workspace per window; asserted
     here, and the allocation delta is the per-window saving the reuse
     buys. *)
  let window = t / 4 in
  let stride = window / 2 in
  let n_windows = ((t - window) / stride) + 1 in
  let fit_windows ~fresh_ws =
    let warm = Em.workspace () in
    let h = ref 0L in
    for w = 0 to n_windows - 1 do
      let win = Array.sub obs (w * stride) window in
      let t0 = Mmhd.init_informed (Stats.Rng.create (1000 + w)) ~n ~m win in
      let ws = if fresh_ws then Em.workspace () else warm in
      let model, _ = Em.fit_from ~ws ~eps:1e-3 ~max_iter ~update_b:false t0 win in
      h := Int64.add (Int64.mul !h 1000003L) (model_fingerprint model)
    done;
    !h
  in
  ignore (fit_windows ~fresh_ws:false);
  let warm_fp, alloc_warm = alloc_of (fun () -> fit_windows ~fresh_ws:false) in
  let fresh_fp, alloc_fresh = alloc_of (fun () -> fit_windows ~fresh_ws:true) in
  if warm_fp <> fresh_fp then begin
    Printf.eprintf
      "FATAL: warm-workspace window fits differ from fresh-workspace fits\n";
    exit 1
  end;
  let saved_per_window = (alloc_fresh -. alloc_warm) /. float_of_int n_windows in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "{\n  \"bench\": \"em_obs_overhead\",\n\
    \  \"t\": %d, \"n\": %d, \"m\": %d, \"restarts\": %d, \"max_iter\": %d,\n\
    \  \"iterations\": %d,\n\
    \  \"disabled_seconds\": %.6f,\n\
    \  \"enabled_seconds\": %.6f,\n\
    \  \"enabled_overhead_ratio\": %.4f,\n\
    \  \"disabled_alloc_bytes\": %.0f,\n\
    \  \"enabled_alloc_bytes\": %.0f,\n\
    \  \"disabled_alloc_bytes_per_obs_iter\": %.4f,\n\
    \  \"trace_enabled_seconds\": %.6f,\n\
    \  \"trace_overhead_ratio\": %.4f,\n\
    \  \"trace_events_per_fit\": %d,\n\
    \  \"trace_disabled_alloc_bytes_per_obs_iter\": %.4f,\n\
    \  \"window_fits\": %d, \"window_len\": %d,\n\
    \  \"warm_ws_alloc_bytes\": %.0f,\n\
    \  \"fresh_ws_alloc_bytes\": %.0f,\n\
    \  \"warm_ws_saved_bytes_per_window\": %.0f,\n\
    \  \"warm_ws_identical_to_fresh\": true,\n\
    \  \"note\": \"one serial MMHD fit timed with Obs collection off and on (min of %d repeats each); every instrumentation call is compiled in in both runs, the disabled run reduces each to a flag check. disabled_alloc_bytes_per_obs_iter is the steady-state allocation of the instrumented kernel with collection off and must stay at zero (the sub-byte slack absorbs Gc.allocated_bytes boxing its own result). the trace_* fields repeat the experiment with the flight recorder (Obs.Trace) enabled and metrics off: trace_overhead_ratio bounds what per-event ring emission costs the fit, trace_events_per_fit counts the events one fit records, and trace_disabled_alloc_bytes_per_obs_iter re-measures the disabled path after the tracing leg to prove the trace instrumentation is allocation-free when off. the warm_ws_* fields measure Em.domain_ws reuse: window_fits informed-init fits over a sliding window, once reusing one warm workspace (what Em.domain_ws gives every fit a domain runs) and once allocating a fresh workspace per window; the workspace holds scaled sweep state but no statistics, so the warm fits are asserted bit-identical to the fresh ones, and warm_ws_saved_bytes_per_window is the allocation the reuse avoids.\"\n}\n"
    t n m restarts max_iter stats.Em.iterations disabled_s enabled_s overhead
    alloc_disabled alloc_enabled disabled_per_obs_iter traced_s trace_overhead
    trace_events disabled_after_per_obs_iter n_windows window
    alloc_warm alloc_fresh saved_per_window repeats;
  let path = if smoke then "BENCH_obs.smoke.json" else "BENCH_obs.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_string (Buffer.contents buf);
  Printf.eprintf "bench_em: wrote %s (enabled overhead %.2f%%)\n%!" path
    (100. *. overhead);
  if smoke then begin
    if overhead >= 0.05 then begin
      Printf.eprintf
        "FATAL: enabled-instrumentation overhead %.2f%% exceeds the 5%% budget\n"
        (100. *. overhead);
      exit 1
    end;
    if disabled_per_obs_iter >= 1. then begin
      Printf.eprintf
        "FATAL: disabled path allocates %.2f bytes per observation-iteration\n"
        disabled_per_obs_iter;
      exit 1
    end;
    if trace_overhead >= 0.05 then begin
      Printf.eprintf
        "FATAL: enabled-tracing overhead %.2f%% exceeds the 5%% budget\n"
        (100. *. trace_overhead);
      exit 1
    end;
    if disabled_after_per_obs_iter >= 1. then begin
      Printf.eprintf
        "FATAL: disabled path allocates %.2f bytes per observation-iteration \
         after the tracing leg\n"
        disabled_after_per_obs_iter;
      exit 1
    end;
    if trace_events = 0 then begin
      Printf.eprintf "FATAL: tracing-enabled fit recorded zero trace events\n";
      exit 1
    end
  end

let () =
  let smoke = ref false and obs_mode = ref false in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--smoke" -> smoke := true
        | "--obs" -> obs_mode := true
        | _ ->
            Printf.eprintf
              "bench_em: unknown argument %S\n\
               usage: bench_em [--smoke] [--obs]\n"
              arg;
            exit 2)
    Sys.argv;
  let smoke = !smoke in
  if !obs_mode then begin
    run_obs ~smoke;
    exit 0
  end;
  let sizes = if smoke then [ 2_000 ] else [ 5_000; 20_000; 80_000 ] in
  let ns = [ 2; 4 ] in
  let cores = Stats.Pool.size () in
  let cases = Buffer.create 4096 and convergence = Buffer.create 4096 in
  let stages = Buffer.create 4096 in
  let first = ref true in
  List.iter
    (fun t ->
      List.iter
        (fun n ->
          Printf.eprintf "bench_em: T=%d n=%d...\n%!" t n;
          run_case ~smoke ~t ~n cases !first;
          run_convergence ~t ~n convergence !first;
          run_stages ~t ~n stages !first;
          first := false)
        ns)
    sizes;
  let buf = Buffer.create 8192 in
  Printf.bprintf buf
    "{\n  \"bench\": \"em_fit\",\n  \"model\": \"mmhd\",\n\
    \  \"cores\": %d,\n\
    \  \"note\": \"each case is one serial 4-restart MMHD fit on the calling domain, every restart running exactly max_iter sweeps (eps = 0), timed once after a warm-up fit; its winner is asserted bit-identical to the winner of the allocation run on the same input. serial_alloc_bytes is the smallest Gc.allocated_bytes delta of three repeats of one full fit (restarts included), and alloc_bytes_per_obs_iter divides it by t * max_iter * restarts. each convergence case is one fit from one informed start at the default eps and max_iter, timed once after a warm-up fit, next to plain EM (em_step repeated until one step changes no parameter by more than eps) from the same start; sweeps count forward-backward passes, one EM step each. each stages case times Em.log_likelihood (the forward pass) and Em.em_step (a whole sweep: forward, backward with the E-step statistics, M-step) from one informed start, %d times each, alternately, after a warm-up call; the figure is the median ns per observation, with the minimum and maximum.\",\n\
    \  \"cases\": [\n"
    cores stage_repeats;
  Buffer.add_buffer buf cases;
  Buffer.add_string buf "\n  ],\n  \"convergence\": [\n";
  Buffer.add_buffer buf convergence;
  Buffer.add_string buf "\n  ],\n  \"stages\": [\n";
  Buffer.add_buffer buf stages;
  Buffer.add_string buf "\n  ]\n}\n";
  let path = if smoke then "BENCH_em.smoke.json" else "BENCH_em.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_string (Buffer.contents buf);
  Printf.eprintf "bench_em: wrote %s\n%!" path
