(* EM kernel benchmark: serial fit wall-time and allocation per
   configuration over a fixed number of sweeps, sweeps, SQUAREM
   fallbacks and wall-time to convergence, and the per-observation cost
   of the forward pass and of a whole sweep, emitted as BENCH_em.json.

   The schema is documented in DESIGN.md ("BENCH_em.json").  The bench
   aborts (exit 1) if a timed fit's winner differs bitwise from the
   allocation run's winner on the same input, if a fixed-sweep fit
   stops before [max_iter], if a to-convergence fit does not converge,
   or if no allocation measurement runs free of minor collections. *)

(* Monotonic wall time via the Obs clock stub: immune to NTP slews,
   and keeps the bench inside the R1 lint contract (no wall-clock
   reads outside lib/stats/rng.ml). *)
let time_of f =
  let t0 = Obs.Span.now_ns () in
  let r = f () in
  (r, float_of_int (Obs.Span.now_ns () - t0) *. 1e-9)

(* Gc.allocated_bytes counts the calling domain's allocation, which is
   the whole of a serial fit.  A minor collection inside the measured
   region inflates the delta on this runtime (by about one minor heap),
   so the measurement runs on an empty minor heap grown to
   [alloc_minor_words] (8 MiB, several times what any measured region
   allocates on it: a workspace's sweep buffers are large enough to go
   straight to the major heap), and counts only a repeat that ran no
   minor collection; the settings are restored afterwards.  Exits 1 if
   three repeats all collected. *)
let alloc_minor_words = 1024 * 1024

let alloc_of f =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = alloc_minor_words };
  let rec measure tries =
    Gc.minor ();
    let c0 = (Gc.quick_stat ()).Gc.minor_collections in
    let a0 = Gc.allocated_bytes () in
    let r = f () in
    let d = Gc.allocated_bytes () -. a0 in
    if (Gc.quick_stat ()).Gc.minor_collections = c0 then (r, d)
    else if tries > 1 then measure (tries - 1)
    else begin
      Printf.eprintf "FATAL: every allocation measurement ran a minor collection\n";
      exit 1
    end
  in
  let r = measure 3 in
  Gc.set saved;
  r

(* Time [f] and [g] alternately, [repeats] times each, so a slow phase
   of the host hits both alike; returns each one's runs in seconds. *)
let alternate ~repeats f g =
  let fs = Array.make repeats 0. and gs = Array.make repeats 0. in
  for k = 0 to repeats - 1 do
    fs.(k) <- snd (time_of f);
    gs.(k) <- snd (time_of g)
  done;
  (fs, gs)

(* The median, minimum and maximum of an odd number of runs (sorts
   [runs] in place). *)
let median_min_max runs =
  Array.sort compare runs;
  let n = Array.length runs in
  (runs.(n / 2), runs.(0), runs.(n - 1))

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

(* --- Fixed sweeps and sweeps to convergence ----------------------------

   Per (T, n), two fits.  The fixed-sweep fit is one serial 4-restart
   MMHD fit whose every restart runs exactly [max_iter] sweeps.  The
   convergence fit is one fit from one informed start at the default
   [eps] (1e-3) and [max_iter] (300), the fit every Identify restart
   runs; it is reported next to plain EM ([Em.em_step] repeated until
   one step moves no parameter by more than [eps]) from the same start,
   the sweeps the accelerated loop saves and what they cost in wall
   time, and with the SQUAREM fallbacks it took, read from
   [dcl_em_squarem_fallbacks_total] on its warm-up run.  The two fits
   are timed alternately, [fit_repeats] times each after a warm-up; the
   median is the figure, the minimum and maximum its spread. *)

let fit_repeats = 5

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

let m_fallbacks = Obs.Counter.make "dcl_em_squarem_fallbacks_total"

let run_case ~smoke ~t ~n cases convergence first =
  let m = 5 and restarts = 4 in
  let max_iter = if smoke then 5 else 15 in
  let obs = synth_obs ~seed:(0x5EED + t + n) ~n ~m ~t in
  let fixed () =
    let rng = Stats.Rng.create 42 in
    Mmhd.fit ~eps:0. ~max_iter ~restarts ~rng ~n ~m obs
  in
  let eps = 1e-3 and conv_max_iter = 300 in
  let conv_obs = synth_obs ~seed:(0xC0 + t + n) ~n ~m ~t in
  let t0 = Mmhd.init_informed (Stats.Rng.create 42) ~n ~m conv_obs in
  let ws = Em.domain_ws () in
  let converge () = Em.fit_from ~ws ~eps ~max_iter:conv_max_iter ~update_b:false t0 conv_obs in
  (* Warm the domain workspace so the timed runs measure the steady
     allocation-free state, not first-call buffer growth; the
     convergence fit's warm-up counts its fallbacks. *)
  ignore (fixed ());
  Obs.set_enabled true;
  let before = Obs.Counter.value m_fallbacks in
  let conv_model, conv_stats = converge () in
  let fallbacks = Obs.Counter.value m_fallbacks -. before in
  Obs.set_enabled false;
  let (model_alloc, stats), alloc = alloc_of fixed in
  check_full_sweeps ~what:(Printf.sprintf "T=%d n=%d fit" t n) ~max_iter stats;
  let last_fixed = ref model_alloc and last_conv = ref conv_model in
  let fixed_runs, conv_runs =
    alternate ~repeats:fit_repeats
      (fun () -> last_fixed := fst (fixed ()))
      (fun () -> last_conv := fst (converge ()))
  in
  if
    (not (Int64.equal (model_fingerprint model_alloc) (model_fingerprint !last_fixed)))
    || not (Int64.equal (model_fingerprint conv_model) (model_fingerprint !last_conv))
  then begin
    Printf.eprintf "FATAL: rerun winner differs from the first winner (T=%d n=%d)\n" t n;
    exit 1
  end;
  let serial_s, serial_lo, serial_hi = median_min_max fixed_runs in
  let conv_s, conv_lo, conv_hi = median_min_max conv_runs in
  let (plain, plain_sweeps, plain_converged), plain_seconds =
    time_of (fun () -> plain_em ~ws ~eps ~max_iter:conv_max_iter t0 conv_obs)
  in
  let plain_ll = Em.log_likelihood ~ws plain conv_obs in
  if not first then begin
    Buffer.add_string cases ",\n";
    Buffer.add_string convergence ",\n"
  end;
  Printf.bprintf cases
    "    {\"t\": %d, \"n\": %d, \"m\": %d, \"restarts\": %d, \"max_iter\": %d,\n\
    \     \"serial_seconds\": %.6f, \"serial_seconds_min\": %.6f, \"serial_seconds_max\": %.6f,\n\
    \     \"serial_alloc_bytes\": %.0f, \"alloc_bytes_per_obs_iter\": %.2f,\n\
    \     \"iterations\": %d, \"log_likelihood\": %.6f}"
    t n m restarts max_iter serial_s serial_lo serial_hi alloc
    (alloc /. float_of_int (t * stats.Em.iterations * restarts))
    stats.Em.iterations stats.Em.log_likelihood;
  Printf.bprintf convergence
    "    {\"t\": %d, \"n\": %d, \"m\": %d, \"eps\": %g, \"max_iter\": %d,\n\
    \     \"sweeps\": %d, \"fallbacks\": %.0f, \"converged\": %b, \"log_likelihood\": %.6f,\n\
    \     \"seconds\": %.6f, \"seconds_min\": %.6f, \"seconds_max\": %.6f,\n\
    \     \"plain_sweeps\": %d, \"plain_converged\": %b, \"plain_log_likelihood\": %.6f,\n\
    \     \"plain_seconds\": %.6f}"
    t n m eps conv_max_iter conv_stats.Em.iterations fallbacks conv_stats.Em.converged
    conv_stats.Em.log_likelihood conv_s conv_lo conv_hi plain_sweeps plain_converged plain_ll
    plain_seconds;
  Printf.eprintf
    "bench_em: T=%d n=%d: fixed-sweep fit %.3f s; to convergence %d sweeps, %.0f fallbacks \
     (plain EM %d)\n%!"
    t n serial_s conv_stats.Em.iterations fallbacks plain_sweeps;
  if not conv_stats.Em.converged then begin
    Printf.eprintf "FATAL: T=%d n=%d fit did not converge in %d sweeps\n" t n conv_max_iter;
    exit 1
  end

(* --- Kernel stages ------------------------------------------------------

   The two passes of a sweep, per observation: [Em.log_likelihood] runs
   the forward pass alone, [Em.em_step] the whole sweep (forward, then
   the backward pass that accumulates the E-step statistics, then the
   O(s^2 + s*m) M-step).  Both start from the same informed model and
   are timed alternately, [stage_repeats] times each after one warm-up
   call; the median is the figure, the minimum and maximum its
   spread.  The [append] case is the fleet's per-path unit instead: a
   [append_t]-observation batch, its whole sweep timed through
   [Em.Incremental.append] (forward, backward with the E-step
   statistics, the likelihood, the carried filtered end), each run
   repeating both calls [append_calls] times. *)

let stage_repeats = 21
let append_t = 64
let append_calls = 1000

let run_stages ?(append = false) ~t ~n buf first =
  let m = 5 in
  let obs = synth_obs ~seed:(0x5EED + t + n) ~n ~m ~t in
  let t0 = Mmhd.init_informed (Stats.Rng.create 42) ~n ~m obs in
  let ws = Em.domain_ws () in
  let calls = if append then append_calls else 1 in
  let repeat f () =
    for _ = 1 to calls do
      f ()
    done
  in
  let forward = repeat (fun () -> ignore (Em.log_likelihood ~ws t0 obs)) in
  let sweep_call, sweep =
    if append then
      let st = Em.Incremental.create ~s:t0.Em.s ~m in
      ("Em.Incremental.append", repeat (fun () -> ignore (Em.Incremental.append ~ws st t0 obs)))
    else ("Em.em_step", repeat (fun () -> ignore (Em.em_step ~ws ~update_b:false t0 obs)))
  in
  forward ();
  sweep ();
  let fwd_runs, sweep_runs = alternate ~repeats:stage_repeats forward sweep in
  let ns_per_obs (med, lo, hi) =
    let k = 1e9 /. float_of_int (t * calls) in
    (med *. k, lo *. k, hi *. k)
  in
  let fwd, fwd_lo, fwd_hi = ns_per_obs (median_min_max fwd_runs) in
  let swp, swp_lo, swp_hi = ns_per_obs (median_min_max sweep_runs) in
  if not first then Buffer.add_string buf ",\n";
  Printf.bprintf buf
    "    {\"t\": %d, \"n\": %d, \"m\": %d, \"repeats\": %d, \"calls\": %d, \"sweep_call\": %S,\n\
    \     \"forward_ns_per_obs\": %.2f, \"forward_ns_per_obs_min\": %.2f, \"forward_ns_per_obs_max\": %.2f,\n\
    \     \"sweep_ns_per_obs\": %.2f, \"sweep_ns_per_obs_min\": %.2f, \"sweep_ns_per_obs_max\": %.2f}"
    t n m stage_repeats calls sweep_call fwd fwd_lo fwd_hi swp swp_lo swp_hi;
  Printf.eprintf "bench_em: stages T=%d n=%d: forward %.1f ns/obs, %s %.1f ns/obs\n%!" t n
    fwd sweep_call swp

(* --- Instrumentation overhead (--obs) --------------------------------

   The EM sweep is the hottest instrumented region (one span plus the
   end-of-fit counters per fit), so it bounds the cost of the telemetry
   layer.  One serial fit, tens of milliseconds long, is timed with
   collection disabled and enabled alternately, [obs_repeats] times
   each, and the overhead is the median of the enabled/disabled ratios
   of adjacent runs, so a slow phase of the host, which hits both runs
   of a pair alike, cancels; the tracing leg does the same with the
   flight recorder off and on.  The disabled run exercises exactly the
   shipped hot path (every Obs call is compiled in, each reduced to one
   flag check), so its alloc-per-observation-iteration figure is the
   steady-state number that must stay at zero. *)

let obs_repeats = 21

let run_obs ~smoke =
  let t = if smoke then 10_000 else 20_000 in
  let n = 2 and m = 5 and restarts = 4 in
  let max_iter = 15 in
  let obs = synth_obs ~seed:0x0B5 ~n ~m ~t in
  let fit () =
    let rng = Stats.Rng.create 42 in
    Mmhd.fit ~eps:0. ~max_iter ~restarts ~rng ~n ~m obs
  in
  Obs.set_enabled false;
  ignore (fit ());
  let (_, stats), alloc_disabled = alloc_of fit in
  check_full_sweeps ~what:"--obs fit" ~max_iter stats;
  Obs.set_enabled true;
  ignore (fit ());
  let _, alloc_enabled = alloc_of fit in
  (* [fit] timed alternately with [off ()] and with [on ()] in force:
     the median seconds of each, and the overhead, the median over the
     adjacent pairs of on/off minus one (a pair shares the host's
     phase, so its ratio cancels it). *)
  let off_on off on =
    let offs, ons =
      alternate ~repeats:obs_repeats
        (fun () -> off (); fit ())
        (fun () -> on (); fit ())
    in
    let median runs = let md, _, _ = median_min_max runs in md in
    let overhead = median (Array.map2 ( /. ) ons offs) -. 1. in
    (median offs, median ons, overhead)
  in
  let disabled_s, enabled_s, overhead =
    off_on (fun () -> Obs.set_enabled false) (fun () -> Obs.set_enabled true)
  in
  Obs.set_enabled false;
  (* --- tracing leg: the same fit with the flight recorder off and on
     (metrics off), then the fully-disabled allocation re-measured,
     proving the tracing instrumentation still costs nothing when off. *)
  Obs.Trace.set_capacity 8192;
  Obs.Trace.set_enabled true;
  ignore (fit ());
  let untraced_s, traced_s, trace_overhead =
    off_on (fun () -> Obs.Trace.set_enabled false) (fun () -> Obs.Trace.set_enabled true)
  in
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  ignore (fit ());
  let trace_events = Obs.Trace.emitted () in
  Obs.Trace.set_enabled false;
  ignore (fit ());
  let _, alloc_disabled_after = alloc_of fit in
  let obs_iters = t * stats.Em.iterations * restarts in
  let disabled_per_obs_iter = alloc_disabled /. float_of_int obs_iters in
  let disabled_after_per_obs_iter =
    alloc_disabled_after /. float_of_int obs_iters
  in
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
    \  \"trace_disabled_seconds\": %.6f,\n\
    \  \"trace_enabled_seconds\": %.6f,\n\
    \  \"trace_overhead_ratio\": %.4f,\n\
    \  \"trace_events_per_fit\": %d,\n\
    \  \"trace_disabled_alloc_bytes_per_obs_iter\": %.4f,\n\
    \  \"window_fits\": %d, \"window_len\": %d,\n\
    \  \"warm_ws_alloc_bytes\": %.0f,\n\
    \  \"fresh_ws_alloc_bytes\": %.0f,\n\
    \  \"warm_ws_saved_bytes_per_window\": %.0f,\n\
    \  \"warm_ws_identical_to_fresh\": true,\n\
    \  \"note\": \"one serial MMHD fit timed with Obs collection off and on, alternately, %d times each, after a warm-up fit; disabled_seconds and enabled_seconds are the medians, and enabled_overhead_ratio is the median of the enabled/disabled ratios of adjacent runs, minus one; every instrumentation call is compiled in in both runs, the disabled run reduces each to a flag check. disabled_alloc_bytes_per_obs_iter is the steady-state allocation of the instrumented kernel with collection off and must stay at zero (the sub-byte slack absorbs Gc.allocated_bytes boxing its own result). the trace_* fields repeat the experiment with the flight recorder (Obs.Trace) off and on and metrics off: trace_overhead_ratio (the median paired ratio, as above) bounds what per-event ring emission costs the fit, trace_events_per_fit counts the events one fit records, and trace_disabled_alloc_bytes_per_obs_iter re-measures the disabled path after the tracing leg to prove the trace instrumentation is allocation-free when off. the warm_ws_* fields measure Em.domain_ws reuse: window_fits informed-init fits over a sliding window, once reusing one warm workspace (what Em.domain_ws gives every fit a domain runs) and once allocating a fresh workspace per window; the workspace holds scaled sweep state but no statistics, so the warm fits are asserted bit-identical to the fresh ones, and warm_ws_saved_bytes_per_window is the allocation the reuse avoids.\"\n}\n"
    t n m restarts max_iter stats.Em.iterations disabled_s enabled_s overhead
    alloc_disabled alloc_enabled disabled_per_obs_iter untraced_s traced_s
    trace_overhead trace_events disabled_after_per_obs_iter n_windows window
    alloc_warm alloc_fresh saved_per_window obs_repeats;
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
          run_case ~smoke ~t ~n cases convergence !first;
          run_stages ~t ~n stages !first;
          first := false)
        ns)
    sizes;
  List.iter (fun n -> run_stages ~append:true ~t:append_t ~n stages false) ns;
  let buf = Buffer.create 8192 in
  Printf.bprintf buf
    "{\n  \"bench\": \"em_fit\",\n  \"model\": \"mmhd\",\n\
    \  \"cores\": %d,\n\
    \  \"note\": \"each case is one serial 4-restart MMHD fit on the calling domain, every restart running exactly max_iter sweeps (eps = 0); its winner is asserted bit-identical to the winner of the allocation run on the same input. serial_alloc_bytes is the Gc.allocated_bytes delta of one full fit (restarts included) run on an empty 8 MiB minor heap that it never fills, so no minor collection inflates it, and alloc_bytes_per_obs_iter divides it by t * max_iter * restarts. each convergence case is one fit from one informed start at the default eps and max_iter, next to plain EM (em_step repeated until one step changes no parameter by more than eps, timed once) from the same start; sweeps count forward-backward passes, one EM step each, a rejected SQUAREM extrapolation included, and fallbacks counts the extrapolations the fit rejected (dcl_em_squarem_fallbacks_total). a case's fixed-sweep fit and its convergence fit are timed alternately, %d times each, after a warm-up fit: serial_seconds and seconds are the medians, with the minimum and maximum. each stages case times Em.log_likelihood (the forward pass) and Em.em_step (a whole sweep: forward, backward with the E-step statistics, M-step) from one informed start, %d times each, alternately, after a warm-up call; the figure is the median ns per observation, with the minimum and maximum. the stages cases with sweep_call Em.Incremental.append time the fleet's per-path unit instead of Em.em_step: a t-observation batch appended to one Em.Incremental state, each run repeating both calls calls times.\",\n\
    \  \"cases\": [\n"
    cores fit_repeats stage_repeats;
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
