(* Public EM surface: model/fit types, the EM step, the fit loop and
   the informed-restart fit.  The numerical inner loops live in
   Em_kernel (compact float-array hot state, whole-sequence kernels).

   The fit loop is SQUAREM (Varadhan & Roland 2008): every cycle
   extrapolates from two plain EM steps, projects the extrapolated
   point back onto the feasible set, and takes one stabilising EM step
   from it, falling back to the plain step from the second iterate
   when the extrapolated point's likelihood is below the first
   iterate's.  It cuts the sweeps of the paper's slowly converging
   fits by about 40%; convergence is still one EM step's parameter
   change, tested after every sweep.  The fit computes only what it
   reads: the observations are classified once per fit, a sweep takes
   the logarithms of its scales only where its likelihood is compared,
   and the extrapolated point is judged by its forward pass alone, so
   a rejected one costs no backward pass and no M-step. *)

module Kernel = Em_kernel

type model = Em_kernel.model = {
  s : int;
  m : int;
  pi : float array;
  a : float array;
  b : float array;
  c : float array;
}

type observation = int option

type fit_stats = {
  iterations : int;
  log_likelihood : float;
  converged : bool;
  skipped_restarts : int;
}

exception Zero_likelihood = Em_kernel.Zero_likelihood

(* Telemetry: registered once at module load, recorded only while Obs
   collection is enabled (each call is a single flag check otherwise).
   Span timings use integer nanoseconds end to end, so the disabled
   path allocates nothing even inside the per-sweep loop. *)
let m_iterations =
  Obs.Counter.make
    ~help:"EM forward-backward sweeps run (one E+M step each), all fits and restarts"
    "dcl_em_iterations_total"

let m_fits = Obs.Counter.make ~help:"EM fits completed" "dcl_em_fits_total"

let m_sweep =
  Obs.Histogram.make ~help:"Wall time of one EM sweep (forward-backward pass and M-step)"
    "dcl_em_sweep_seconds"

let m_fallbacks =
  Obs.Counter.make
    ~help:"SQUAREM cycles whose extrapolated point lowered the likelihood, replaced by a plain EM step"
    "dcl_em_squarem_fallbacks_total"

let m_degenerate =
  Obs.Counter.make ~help:"Restarts skipped after hitting a zero-likelihood degeneracy"
    "dcl_em_degenerate_restarts_total"

let m_last_ll =
  Obs.Gauge.make ~help:"Final log-likelihood of the most recently completed fit"
    "dcl_em_last_log_likelihood"

(* Floors applied by the M-step so no re-estimated emission or
   transition probability can collapse to exactly zero (a collapsed row
   makes a later observation impossible and used to abort the whole
   fit).  Small enough not to disturb the EM fixed points at the
   paper's 1e-3 convergence threshold. *)
let prob_floor = 1e-12
let c_floor = 1e-9

(* One set of EM sufficient statistics: what a sweep accumulates and
   the M-step reads.  [em_step] fills a scratch set from one sweep;
   [Incremental] keeps a decayed running set per sequence.  Arrays may
   be longer than the model needs (the scratch set grows with the
   workspace); only the [s]/[m]-strided prefix is read or written. *)
type acc = {
  xi : float array; (* s*s transition statistics *)
  gamma_sum : float array; (* s, transition denominators *)
  count_obs : float array; (* s*m *)
  count_loss : float array; (* s*m *)
  pi0 : float array; (* s, batch-start posteriors *)
}

let acc_create ~s ~m =
  {
    xi = Array.make (s * s) 0.;
    gamma_sum = Array.make s 0.;
    count_obs = Array.make (s * m) 0.;
    count_loss = Array.make (s * m) 0.;
    pi0 = Array.make s 0.;
  }

let acc_clear acc ~s ~m =
  Array.fill acc.xi 0 (s * s) 0.;
  Array.fill acc.gamma_sum 0 s 0.;
  Array.fill acc.count_obs 0 (s * m) 0.;
  Array.fill acc.count_loss 0 (s * m) 0.;
  Array.fill acc.pi0 0 s 0.

(* The kernel's sweep buffers plus [em_step]'s scratch statistics,
   grown alongside them. *)
type workspace = { k : Kernel.workspace; mutable scratch : acc }

let workspace () = { k = Kernel.create (); scratch = acc_create ~s:0 ~m:0 }

(* One workspace per domain, reused across every fit that domain runs.
   Because the domains behind Stats.Pool persist for the process
   lifetime, these workspaces stay warm across pool jobs: the fleet's
   per-path updates allocate nothing for their sweep buffers. *)
let domain_ws_key =
  (* lint: allow R2 per-domain workspace cache; each fleet pool domain owns its slot *)
  Domain.DLS.new_key workspace

(* lint: allow R2 reads the calling domain's own slot, never another domain's *)
let domain_ws () = Domain.DLS.get domain_ws_key

let validate (t : model) =
  let is_probs v = Array.for_all (fun p -> p >= 0. && p <= 1.) v in
  if t.s <= 0 || t.m <= 0 then invalid_arg "Em.validate: s and m must be positive";
  if Array.length t.pi <> t.s
     || (not (is_probs t.pi))
     || not (Stats.Matrix.is_stochastic ~cols:t.s t.pi)
  then invalid_arg "Em.validate: pi is not a distribution over s states";
  if Array.length t.a <> t.s * t.s || not (Stats.Matrix.is_stochastic ~cols:t.s t.a) then
    invalid_arg "Em.validate: a is not an s-by-s stochastic matrix";
  if Array.length t.b <> t.s * t.m || not (Stats.Matrix.is_stochastic ~cols:t.m t.b) then
    invalid_arg "Em.validate: b is not an s-by-m stochastic matrix";
  if Array.length t.c <> t.m || not (is_probs t.c) then
    invalid_arg "Em.validate: c is not a vector of m probabilities"

let check_symbols ~who ~m obs =
  let bad = ref 0 in
  for time = 0 to Array.length obs - 1 do
    match obs.(time) with Some j -> bad := !bad lor j lor (m - 1 - j) | None -> ()
  done;
  if !bad < 0 then Kernel.reject_symbols ~who ~m obs

let check_obs name obs =
  if Array.length obs = 0 then invalid_arg (name ^ ": empty observation sequence")

(* Size the workspace for [t]'s dimensions over [obs] and classify the
   observations. *)
let load { k; _ } (t : model) obs =
  Kernel.reserve k ~tt:(Array.length obs) ~s:t.s ~m:t.m;
  Kernel.classify k t obs

(* Size, classify and prepare the workspace for [t] over [obs], then
   run the forward pass. *)
let run_forward ws (t : model) obs =
  load ws t obs;
  Kernel.prepare ws.k t;
  Kernel.forward ws.k t ~tt:(Array.length obs)

(* One sweep: the forward pass, then the backward pass that also
   accumulates the E-step statistics. *)
let run_sweep ws (t : model) obs =
  run_forward ws t obs;
  Kernel.backward_estep ws.k t ~tt:(Array.length obs)

let log_likelihood ~ws t obs =
  check_obs "Em.log_likelihood" obs;
  run_forward ws t obs;
  Kernel.log_likelihood ws.k ~tt:(Array.length obs)

let state_posteriors ~(ws : workspace) t obs =
  check_obs "Em.state_posteriors" obs;
  run_sweep ws t obs;
  let s = t.s and ws = ws.k in
  let act = ws.act and act_len = ws.act_len and cls = ws.cls in
  (* The compact rows, in ascending time from offset 0. *)
  let row = ref 0 in
  Array.init (Array.length obs) (fun time ->
      let gamma = Array.make s 0. in
      let r = cls.(time) in
      let base = r * s and len = act_len.(r) in
      for idx = 0 to len - 1 do
        gamma.(act.(base + idx)) <- ws.alpha.(!row + idx) *. ws.beta.(!row + idx)
      done;
      row := !row + len;
      gamma)

(* Per-symbol loss mass sum_st count_loss(st, j), Eq. (5)'s numerator,
   from loss counts read through [get]. *)
let loss_columns ~s ~m get =
  Array.init m (fun j ->
      let acc = ref 0. in
      for st = 0 to s - 1 do
        acc := !acc +. get ((st * m) + j)
      done;
      !acc)

let virtual_delay_pmf ~(ws : workspace) t obs =
  check_obs "Em.virtual_delay_pmf" obs;
  if not (Array.exists (fun o -> o = None) obs) then
    invalid_arg "Em.virtual_delay_pmf: no loss in the sequence";
  run_sweep ws t obs;
  Stats.Histogram.normalize (loss_columns ~s:t.s ~m:t.m (Array.get ws.k.count_loss))

(* Floor every entry of [row] (length [n] at [off]) and normalize it to
   sum to one. *)
let floor_normalize row off n =
  let sum = ref 0. in
  for k = off to off + n - 1 do
    let v = row.(k) in
    let v = if v < prob_floor then prob_floor else v in
    row.(k) <- v;
    sum := !sum +. v
  done;
  let inv = 1. /. !sum in
  for k = off to off + n - 1 do
    row.(k) <- row.(k) *. inv
  done

let clamp_c p = Float.max c_floor (Float.min (1. -. c_floor) p)

(* Add the statistics of the sweep just accumulated in [ws] to [acc],
   with the batch-start posterior read from the first compact row
   (offset 0), which holds the states active at the first instant. *)
let acc_add (ws : Kernel.workspace) acc ~s ~m =
  for i = 0 to (s * s) - 1 do
    acc.xi.(i) <- acc.xi.(i) +. ws.xi.(i)
  done;
  for i = 0 to s - 1 do
    acc.gamma_sum.(i) <- acc.gamma_sum.(i) +. ws.gamma_sum.(i)
  done;
  for i = 0 to (s * m) - 1 do
    acc.count_obs.(i) <- acc.count_obs.(i) +. ws.count_obs.(i);
    acc.count_loss.(i) <- acc.count_loss.(i) +. ws.count_loss.(i)
  done;
  let r0 = ws.cls.(0) in
  let base0 = r0 * s in
  for idx = 0 to ws.act_len.(r0) - 1 do
    let st = ws.act.(base0 + idx) in
    acc.pi0.(st) <- acc.pi0.(st) +. Float.max 0. (ws.alpha.(idx) *. ws.beta.(idx))
  done

(* The M-step: re-estimate [t] from one set of statistics.  A block
   with no mass (zero posterior start mass, a state never left, a
   symbol never seen) keeps the current parameters. *)
let m_step ~update_b acc (t : model) =
  let s = t.s and m = t.m in
  let pi_sum = ref 0. in
  for st = 0 to s - 1 do
    pi_sum := !pi_sum +. acc.pi0.(st)
  done;
  let pi_sum = !pi_sum in
  let pi' =
    if pi_sum > 0. then Array.init s (fun st -> acc.pi0.(st) /. pi_sum)
    else Array.copy t.pi
  in
  let a' = Array.make (s * s) 0. in
  for st = 0 to s - 1 do
    let off = st * s in
    let g = acc.gamma_sum.(st) in
    if g <= 0. then Array.blit t.a off a' off s
    else begin
      let inv = 1. /. g in
      for k = 0 to s - 1 do
        a'.(off + k) <- acc.xi.(off + k) *. inv
      done;
      floor_normalize a' off s
    end
  done;
  let b' =
    if not update_b then t.b
    else begin
      let b' = Array.make (s * m) 0. in
      for st = 0 to s - 1 do
        let off = st * m in
        let sum = ref 0. in
        for j = 0 to m - 1 do
          let v = acc.count_obs.(off + j) +. acc.count_loss.(off + j) in
          b'.(off + j) <- v;
          sum := !sum +. v
        done;
        if !sum <= 0. then Array.blit t.b off b' off m else floor_normalize b' off m
      done;
      b'
    end
  in
  let c' =
    Array.init m (fun j ->
        let lost = ref 0. and seen = ref 0. in
        for st = 0 to s - 1 do
          let l = acc.count_loss.((st * m) + j) in
          lost := !lost +. l;
          seen := !seen +. acc.count_obs.((st * m) + j) +. l
        done;
        if !seen <= 0. then t.c.(j) else clamp_c (!lost /. !seen))
  in
  { t with pi = pi'; a = a'; b = b'; c = c' }

(* The M-step from the sweep of [t] just run in [ws]: copy its
   statistics into the workspace's scratch set and re-estimate [t]. *)
let sweep_m_step ~(ws : workspace) ~update_b (t : model) =
  let s = t.s and m = t.m in
  if Array.length ws.scratch.xi < s * s || Array.length ws.scratch.count_obs < s * m
  then ws.scratch <- acc_create ~s:ws.k.cap_s ~m:ws.k.cap_m;
  acc_clear ws.scratch ~s ~m;
  acc_add ws.k ws.scratch ~s ~m;
  m_step ~update_b ws.scratch t

let em_step ~ws ~update_b t obs =
  check_obs "Em.em_step" obs;
  run_sweep ws t obs;
  sweep_m_step ~ws ~update_b t

(* Streaming EM over decayed sufficient statistics (the fleet layer's
   per-path recursion).  A [stats] value accumulates the E-step
   statistics of every appended batch, scaled by a forgetting factor
   between batches; the M-step then re-estimates the model from the
   decayed totals with the same [m_step] [em_step] uses.  [append]
   runs one serial forward–backward sweep over the new batch only, so
   the per-epoch cost is O(batch), not O(history). *)
module Incremental = struct
  type stats = {
    s : int;
    m : int;
    acc : acc; (* decayed totals *)
    fend : float array; (* s, filtered distribution at the last instant *)
    mutable primed : bool; (* [fend] holds a real distribution *)
    mutable weight : float;
    mutable log_likelihood : float;
    mutable batches : int;
  }

  let create ~s ~m =
    if s <= 0 || m <= 0 then
      invalid_arg "Em.Incremental.create: dimensions must be positive";
    {
      s;
      m;
      acc = acc_create ~s ~m;
      fend = Array.make s 0.;
      primed = false;
      weight = 0.;
      log_likelihood = 0.;
      batches = 0;
    }

  let reset st =
    acc_clear st.acc ~s:st.s ~m:st.m;
    Array.fill st.fend 0 st.s 0.;
    st.primed <- false;
    st.weight <- 0.;
    st.log_likelihood <- 0.;
    st.batches <- 0

  let scale_into a lambda =
    for i = 0 to Array.length a - 1 do
      a.(i) <- a.(i) *. lambda
    done

  (* Multiplying by 1.0 is the bitwise identity, so [decay ~lambda:1.]
     is exact and needs no float-equality guard. *)
  let decay st ~lambda =
    if Float.is_nan lambda || lambda < 0. || lambda > 1. then
      invalid_arg "Em.Incremental.decay: lambda must be in [0, 1]";
    scale_into st.acc.xi lambda;
    scale_into st.acc.gamma_sum lambda;
    scale_into st.acc.count_obs lambda;
    scale_into st.acc.count_loss lambda;
    scale_into st.acc.pi0 lambda;
    st.weight <- st.weight *. lambda;
    st.log_likelihood <- st.log_likelihood *. lambda

  let dims_check name st (t : model) =
    if t.s <> st.s || t.m <> st.m then
      invalid_arg (name ^ ": model dimensions do not match the statistics")

  let append ~(ws : workspace) ?(carry = true) st (t : model) obs =
    dims_check "Em.Incremental.append" st t;
    check_obs "Em.Incremental.append" obs;
    let s = st.s in
    let tt = Array.length obs in
    Obs.Trace.span_begin "em.append" tt;
    (* Seed the batch from the carried filtered distribution propagated
       one step through the current transitions: the previous batch
       ended at instant T-1, this one starts at the next instant, so
       pi_batch = A^T fend.  The boundary transition's expected counts
       are not accumulated (the only cross-batch approximation; the
       forward likelihood itself factorizes exactly). *)
    let t =
      if carry && st.primed then begin
        let pi = Array.make s 0. in
        for dst = 0 to s - 1 do
          let acc = ref 0. in
          for src = 0 to s - 1 do
            acc := !acc +. (st.fend.(src) *. t.a.((src * s) + dst))
          done;
          pi.(dst) <- !acc
        done;
        { t with pi }
      end
      else t
    in
    let ll =
      match run_sweep ws t obs with
      | () -> Kernel.log_likelihood ws.k ~tt
      | exception e ->
          (* Zero_likelihood from the sweep: close the span so the
             recorder's begin/end stream stays balanced. *)
          Obs.Trace.span_end "em.append";
          raise e
    in
    let ws = ws.k in
    acc_add ws st.acc ~s ~m:st.m;
    (* The filtered end: the normalized alpha row of the last instant,
       the last compact row, spread over that instant's active set. *)
    Array.fill st.fend 0 s 0.;
    let rl = ws.cls.(tt - 1) in
    let basel = rl * s and lenl = ws.act_len.(rl) in
    let rowl = ws.total - lenl in
    for idx = 0 to lenl - 1 do
      st.fend.(ws.act.(basel + idx)) <- ws.alpha.(rowl + idx)
    done;
    st.primed <- true;
    st.weight <- st.weight +. float_of_int tt;
    st.log_likelihood <- st.log_likelihood +. ll;
    st.batches <- st.batches + 1;
    Obs.Trace.span_end "em.append";
    ll

  let m_step st (t : model) =
    dims_check "Em.Incremental.m_step" st t;
    if st.batches = 0 then
      invalid_arg "Em.Incremental.m_step: no appended batch";
    m_step ~update_b:false st.acc t

  let loss_mass st = loss_columns ~s:st.s ~m:st.m (Array.get st.acc.count_loss)

  let filtered_end st = Array.copy st.fend
  let weight st = st.weight
  let log_likelihood st = st.log_likelihood
  let batches st = st.batches
  let xi st = Array.copy st.acc.xi
  let gamma_sum st = Array.copy st.acc.gamma_sum
  let count_obs st = Array.copy st.acc.count_obs
  let count_loss st = Array.copy st.acc.count_loss
end

let param_change old_t new_t =
  let max_abs_diff = Stats.Matrix.max_abs_diff in
  let d = max_abs_diff old_t.pi new_t.pi in
  let d = Float.max d (max_abs_diff old_t.a new_t.a) in
  let d = if old_t.b == new_t.b then d else Float.max d (max_abs_diff old_t.b new_t.b) in
  Float.max d (max_abs_diff old_t.c new_t.c)

(* SQUAREM extrapolation (Varadhan & Roland 2008, scheme S3) from
   [x0], [x1 = F(x0)] and [x2 = F(x1)]: with r = x1 - x0 and
   v = x2 - 2 x1 + x0 over every fitted block, the step length
   alpha = -|r|/|v| clamped to <= -1, and x' = x0 - 2 alpha r + alpha^2 v
   (alpha = -1 gives x2).  x' is then projected back onto the feasible
   set: [pi] keeps [x2]'s zeros and is clipped at 0 and renormalized,
   the rows of [a] (and of [b] when it is fitted) are floored and
   renormalized like the M-step's, and [c] is clamped like the M-step's.
   Allocates only the new model. *)
let extrapolate ~update_b x0 x1 x2 =
  let rr = ref 0. and vv = ref 0. in
  let norms u0 u1 u2 =
    for i = 0 to Array.length u0 - 1 do
      let r = u1.(i) -. u0.(i) and v = u2.(i) -. (2. *. u1.(i)) +. u0.(i) in
      rr := !rr +. (r *. r);
      vv := !vv +. (v *. v)
    done
  in
  norms x0.pi x1.pi x2.pi;
  norms x0.a x1.a x2.a;
  if update_b then norms x0.b x1.b x2.b;
  norms x0.c x1.c x2.c;
  let alpha = -.sqrt (!rr /. !vv) in
  (* When |v| vanishes (alpha^2 |v| = |r|^2 / |v| is not finite), take
     alpha = -1: the plain double step. *)
  let alpha =
    if Float.is_finite (!rr /. sqrt !vv) then Float.min (-1.) alpha else -1.
  in
  let ext u0 u1 u2 =
    Array.init (Array.length u0) (fun i ->
        u0.(i)
        -. (2. *. alpha *. (u1.(i) -. u0.(i)))
        +. (alpha *. alpha *. (u2.(i) -. (2. *. u1.(i)) +. u0.(i))))
  in
  let pi = ext x0.pi x1.pi x2.pi in
  let sum = ref 0. in
  Array.iteri
    (fun i p ->
      let p = if x2.pi.(i) <= 0. || p < 0. then 0. else p in
      pi.(i) <- p;
      sum := !sum +. p)
    pi;
  let pi =
    if !sum > 0. then Array.map (fun p -> p /. !sum) pi else Array.copy x2.pi
  in
  let rows u n =
    for off = 0 to (Array.length u / n) - 1 do
      floor_normalize u (off * n) n
    done;
    u
  in
  let a = rows (ext x0.a x1.a x2.a) x2.s in
  let b = if update_b then rows (ext x0.b x1.b x2.b) x2.m else x2.b in
  let c = Array.map clamp_c (ext x0.c x1.c x2.c) in
  { x2 with pi; a; b; c }

let default_eps = 1e-3
let default_max_iter = 300

let check_fit_args ~who ~eps ~max_iter =
  if max_iter < 1 then invalid_arg (who ^ ": max_iter must be at least 1");
  if Float.is_nan eps || eps < 0. then
    invalid_arg (who ^ ": eps must be a non-negative number")

let fit_from ~ws ?(eps = default_eps) ?(max_iter = default_max_iter) ~update_b t0 obs =
  check_fit_args ~who:"Em.fit_from" ~eps ~max_iter;
  check_obs "Em.fit_from" obs;
  let tt = Array.length obs in
  (* The observations do not change during the fit: size the workspace
     and classify them (the symbol range check included) once; each
     sweep then only prepares its model's tables. *)
  load ws t0 obs;
  let forward t =
    Kernel.prepare ws.k t;
    Kernel.forward ws.k t ~tt
  in
  (* The rest of a sweep whose forward pass has just run. *)
  let complete t =
    Kernel.backward_estep ws.k t ~tt;
    sweep_m_step ~ws ~update_b t
  in
  let sweeps = ref 0 in
  (* One EM step, counted against [max_iter] and timed as one sweep. *)
  let sweep t =
    incr sweeps;
    let t0_ns = Obs.Span.start () in
    Obs.Trace.span_begin "em.sweep" !sweeps;
    match
      forward t;
      complete t
    with
    | t' ->
        Obs.Trace.span_end "em.sweep";
        Obs.Span.stop m_sweep t0_ns;
        t'
    | exception e ->
        Obs.Trace.span_end "em.sweep";
        raise e
  in
  (* The extrapolated point [x'], counted against [max_iter] as one
     sweep but judged by its forward pass alone: [Some F(x')] when its
     likelihood reaches [floor], the sweep completing on that forward
     pass and traced and timed as a whole sweep; otherwise [None] (a
     NaN or zero likelihood included), traced as an "em.candidate" span
     and kept out of [m_sweep].  The span is emitted once the verdict
     is known, stamped with the candidate's start. *)
  let candidate x' ~floor =
    incr sweeps;
    let start = Obs.Span.now_ns () in
    let accepted =
      match forward x' with
      (* [>=] is false for a NaN likelihood. *)
      | () -> Kernel.log_likelihood ws.k ~tt >= floor
      | exception Zero_likelihood _ -> false
    in
    if accepted then begin
      Obs.Trace.span_begin_at "em.sweep" !sweeps start;
      let x3 = complete x' in
      Obs.Trace.span_end "em.sweep";
      Obs.Span.stop m_sweep start;
      Some x3
    end
    else begin
      Obs.Trace.span_begin_at "em.candidate" !sweeps start;
      Obs.Trace.span_end "em.candidate";
      None
    end
  in
  let finish t converged =
    forward t;
    let stats =
      {
        iterations = !sweeps;
        log_likelihood = Kernel.log_likelihood ws.k ~tt;
        converged;
        skipped_restarts = 0;
      }
    in
    if Obs.enabled () then begin
      Obs.Counter.add m_iterations stats.iterations;
      Obs.Counter.incr m_fits;
      Obs.Gauge.set m_last_ll stats.log_likelihood
    end;
    (t, stats)
  in
  (* After the step [t -> t']: finish on convergence or at the sweep
     cap, otherwise continue with [k ()]. *)
  let after t t' k =
    if param_change t t' <= eps then finish t' true
    else if !sweeps >= max_iter then finish t' false
    else k ()
  in
  (* One SQUAREM cycle from [x0]: two plain steps, the extrapolated
     point [x'], and one stabilising step from [x'], kept only if
     logL(x') >= logL(x1); otherwise, and when [x'] is impossible, the
     plain step from [x2] instead.  Every sweep is checked for
     convergence and against the cap, so the cap is exact. *)
  let rec cycle x0 =
    let x1 = sweep x0 in
    after x0 x1 @@ fun () ->
    let x2 = sweep x1 in
    after x1 x2 @@ fun () ->
    (* The last forward pass was x1's, so its scales give logL(x1). *)
    let ll1 = Kernel.log_likelihood ws.k ~tt in
    let x' = extrapolate ~update_b x0 x1 x2 in
    match candidate x' ~floor:ll1 with
    | Some x3 -> after x' x3 (fun () -> cycle x3)
    | None ->
        Obs.Counter.incr m_fallbacks;
        if !sweeps >= max_iter then finish x2 false
        else
          let x3 = sweep x2 in
          after x2 x3 (fun () -> cycle x3)
  in
  cycle t0

(* Nearest-surviving-neighbour attribution of losses to symbols: the
   empirical analogue of the posterior the EM will compute. *)
let neighbor_attribution ~m obs =
  let tt = Array.length obs in
  let seen = Array.make m 1. and lost = Array.make m 0.5 in
  let nearest t0 =
    let rec scan d =
      if d > tt then None
      else
        let back = t0 - d and fwd = t0 + d in
        let pick t = if t >= 0 && t < tt then obs.(t) else None in
        match pick back with
        | Some j -> Some j
        | None -> ( match pick fwd with Some j -> Some j | None -> scan (d + 1))
    in
    scan 1
  in
  Array.iteri
    (fun t o ->
      match o with
      | Some j -> seen.(j) <- seen.(j) +. 1.
      | None -> (
          match nearest t with
          | Some j -> lost.(j) <- lost.(j) +. 1.
          | None -> ()))
    obs;
  (seen, lost)

let fit_informed ?(eps = default_eps) ?(max_iter = default_max_iter) ?(restarts = 2) ~who
    ~rng ~update_b ~init obs =
  if restarts <= 0 then invalid_arg (who ^ ": restarts must be positive");
  check_fit_args ~who ~eps ~max_iter;
  (* Every starting point is the data-driven informed initialization
     with independent jitter, and the best converged attempt wins.
     Purely random initializations are deliberately not raced by
     likelihood: the model families admit degenerate optima in which a
     rarely-observed symbol absorbs all the losses (its loss
     probability is driven toward 1 at negligible cost), and those
     optima can dominate the likelihood while being statistically
     meaningless.  Informed starts are anchored by the neighbour
     attribution, so comparing them by likelihood is safe. *)
  let attempt k =
    let t0 = init (Stats.Rng.split rng) in
    Obs.Trace.span_begin "em.fit" k;
    match fit_from ~ws:(domain_ws ()) ~eps ~max_iter ~update_b t0 obs with
    | r ->
        Obs.Trace.span_end "em.fit";
        Some r
    | exception Zero_likelihood _ ->
        Obs.Trace.instant "em.zero_likelihood" k;
        Obs.Trace.span_end "em.fit";
        None
  in
  let best = ref None in
  let skipped = ref 0 in
  for k = 0 to restarts - 1 do
    match (attempt k, !best) with
    | None, _ -> incr skipped
    | Some c, None -> best := Some c
    | Some ((_, cs) as c), Some (_, bs) ->
        let better =
          (cs.converged && not bs.converged)
          || (cs.converged = bs.converged && cs.log_likelihood > bs.log_likelihood)
        in
        if better then best := Some c
  done;
  if !skipped > 0 then Obs.Counter.add m_degenerate !skipped;
  match !best with
  | Some (model, stats) -> (model, { stats with skipped_restarts = !skipped })
  | None -> failwith (who ^ ": every restart hit a zero-likelihood degeneracy")
