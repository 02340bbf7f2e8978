(* Bigarray-backed hot state and whole-sequence kernels for the shared
   EM sweep.

   This module owns the numerical inner loops only: the public API, the
   EM update logic and the informed-restart fit live in [Em].

   All float sweep state lives in unboxed [Bigarray.Array1] float64
   buffers ([buf]); [unsafe_get]/[unsafe_set] on them appear strictly
   inside the [lint: hot] fences below (dcl-lint rule R5 checks both
   directions).  A sweep is two passes over the whole sequence, the
   forward recursion and then the backward recursion fused with the
   E-step statistics, each run serially; the only parallelism is the
   fleet's fan-out over paths. *)

module Ba = Bigarray.Array1

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Ba.t

type model = {
  s : int;
  m : int;
  pi : float array;
  a : float array;
  b : float array;
  c : float array;
}

exception Zero_likelihood of int

let m_zero =
  Obs.Counter.make ~help:"Observations found impossible under the current model"
    "dcl_em_zero_likelihood_total"

type workspace = {
  (* T*S sweep buffers, row-major by time. *)
  mutable alpha : buf;
  mutable beta : buf;
  mutable scale : buf; (* T *)
  (* Observation classes: cls.(t) = j for [Some j], m for [None].  A
     class is both the row of the emission table and the row of the
     active-state table, so the sweeps never touch the boxed
     [int option] observations. *)
  mutable cls : int array; (* T *)
  (* Per-sweep emission table, class-major: row j < m holds
     e(st, Some j) at e_all.(j*s + st), row m holds the loss emission
     e(st, None) at e_all.(m*s + st). *)
  mutable e_all : buf; (* (M+1)*S *)
  mutable w : buf; (* S*M, state-major loss-symbol weights *)
  (* The transition matrix, copied row-major (a_r) and transposed (a_t)
     so both sweep directions stream contiguous rows. *)
  mutable a_r : buf; (* S*S *)
  mutable a_t : buf; (* S*S *)
  mutable pi_b : buf; (* S *)
  (* Active-state lists: row j < m lists states that can emit symbol j,
     row m lists states with positive loss emission. *)
  mutable act : int array; (* (M+1)*S *)
  mutable act_len : int array; (* M+1 *)
  (* EM accumulators (the M-step reads these). *)
  mutable xi : buf; (* S*S *)
  mutable gamma_sum : buf; (* S *)
  mutable count_obs : buf; (* S*M *)
  mutable count_loss : buf; (* S*M *)
  mutable tmp : buf; (* S, backward step scratch *)
  mutable cap_t : int;
  mutable cap_s : int;
  mutable cap_m : int;
}

let fbuf n = Ba.create Bigarray.float64 Bigarray.c_layout n

let create () =
  {
    alpha = fbuf 0;
    beta = fbuf 0;
    scale = fbuf 0;
    cls = [||];
    e_all = fbuf 0;
    w = fbuf 0;
    a_r = fbuf 0;
    a_t = fbuf 0;
    pi_b = fbuf 0;
    act = [||];
    act_len = [||];
    xi = fbuf 0;
    gamma_sum = fbuf 0;
    count_obs = fbuf 0;
    count_loss = fbuf 0;
    tmp = fbuf 0;
    cap_t = 0;
    cap_s = 0;
    cap_m = 0;
  }

(* Grow (never shrink) every buffer to hold a [tt]-step sweep of an
   [s]-state, [m]-symbol model.  Amortized: a workspace reused across
   sweeps and restarts allocates nothing after the first call. *)
let reserve ws ~tt ~s ~m =
  if s > ws.cap_s || m > ws.cap_m then begin
    let cs = max s ws.cap_s and cm = max m ws.cap_m in
    ws.e_all <- fbuf ((cm + 1) * cs);
    ws.w <- fbuf (cs * cm);
    ws.a_r <- fbuf (cs * cs);
    ws.a_t <- fbuf (cs * cs);
    ws.pi_b <- fbuf cs;
    ws.act <- Array.make ((cm + 1) * cs) 0;
    ws.act_len <- Array.make (cm + 1) 0;
    ws.xi <- fbuf (cs * cs);
    ws.gamma_sum <- fbuf cs;
    ws.count_obs <- fbuf (cs * cm);
    ws.count_loss <- fbuf (cs * cm);
    ws.tmp <- fbuf cs;
    ws.cap_s <- cs;
    ws.cap_m <- cm;
    (* Force the T-striped buffers to regrow with the new row width. *)
    ws.cap_t <- 0
  end;
  if tt > ws.cap_t then begin
    let ct = max tt ws.cap_t in
    ws.alpha <- fbuf (ct * ws.cap_s);
    ws.beta <- fbuf (ct * ws.cap_s);
    ws.scale <- fbuf ct;
    ws.cls <- Array.make ct 0;
    ws.cap_t <- ct
  end

(* Symbols outside [0, m) would index past the emission table (or read
   as the loss class [m]).  The range test is one [lor] per observation
   ([j lor (m - 1 - j)] is negative iff [j] is out of range), and only a
   failed test pays for locating the culprit: a raising branch inside
   the per-observation loops measurably slowed sweeps and pushes. *)
let reject_symbols ~who ~m obs =
  Array.iteri
    (fun time o ->
      match o with
      | Some j when j < 0 || j >= m ->
          invalid_arg
            (Printf.sprintf "%s: symbol %d at time %d is outside [0, %d)" who j time m)
      | Some _ | None -> ())
    obs

(* Collapse the boxed observations into integer classes once per sweep;
   every pass then reads the flat [cls] array instead of matching an
   [int option] (a pointer dereference plus a branch) at each of its
   per-time-step accesses.  The symbol range check rides along, so
   every sweep rejects an out-of-range symbol. *)
let classify ws (t : model) obs =
  let m = t.m and cls = ws.cls in
  let bad = ref 0 in
  for time = 0 to Array.length obs - 1 do
    match Array.unsafe_get obs time with
    | Some j ->
        bad := !bad lor j lor (m - 1 - j);
        Array.unsafe_set cls time j
    | None -> Array.unsafe_set cls time m
  done;
  if !bad < 0 then reject_symbols ~who:"Em" ~m obs

(* lint: hot *)

(* [Ba.fill (Ba.sub ..)] would allocate a view per call; a plain loop
   keeps the clears allocation-free. *)
let fill_range (b : buf) off len v =
  for i = 0 to len - 1 do
    Ba.unsafe_set b (off + i) v
  done

(* Fill the emission table, active-state lists, transposed/row copies
   of the transitions and the initial distribution for [t] — once per
   class per sweep, however many times each class occurs in the
   sequence.  The missing-value emission (paper Section V) lives here,
   shared by both model families:
     e(st, Some j) = b_st(j) * (1 - c_j)
     e(st, None)   = sum_j b_st(j) * c_j
     w(st, j)      = b_st(j) * c_j / e(st, None)   (loss-symbol posterior) *)
let prepare ws (t : model) =
  let s = t.s and m = t.m in
  let b = t.b and c = t.c in
  let e_all = ws.e_all and w = ws.w in
  let act = ws.act and act_len = ws.act_len in
  for j = 0 to m - 1 do
    let one_minus_c = 1. -. Array.unsafe_get c j in
    let row = j * s in
    let len = ref 0 in
    for st = 0 to s - 1 do
      let e = Array.unsafe_get b ((st * m) + j) *. one_minus_c in
      Ba.unsafe_set e_all (row + st) e;
      if e > 0. then begin
        Array.unsafe_set act (row + !len) st;
        incr len
      end
    done;
    act_len.(j) <- !len
  done;
  let loss_row = m * s in
  let loss_len = ref 0 in
  for st = 0 to s - 1 do
    let acc = ref 0. in
    let base = st * m in
    for j = 0 to m - 1 do
      acc := !acc +. (Array.unsafe_get b (base + j) *. Array.unsafe_get c j)
    done;
    let e = !acc in
    Ba.unsafe_set e_all (loss_row + st) e;
    if e > 0. then begin
      Array.unsafe_set act (loss_row + !loss_len) st;
      incr loss_len;
      let inv = 1. /. e in
      for j = 0 to m - 1 do
        Ba.unsafe_set w (base + j)
          (Array.unsafe_get b (base + j) *. Array.unsafe_get c j *. inv)
      done
    end
    else
      for j = 0 to m - 1 do
        Ba.unsafe_set w (base + j) 0.
      done
  done;
  act_len.(m) <- !loss_len;
  let a = t.a and a_r = ws.a_r and a_t = ws.a_t in
  for st = 0 to s - 1 do
    let row = st * s in
    for st' = 0 to s - 1 do
      let v = Array.unsafe_get a (row + st') in
      Ba.unsafe_set a_r (row + st') v;
      Ba.unsafe_set a_t ((st' * s) + st) v
    done
  done;
  for st = 0 to s - 1 do
    Ba.unsafe_set ws.pi_b st (Array.unsafe_get t.pi st)
  done

let zero_likelihood time =
  Obs.Counter.incr m_zero;
  raise (Zero_likelihood time)

(* Normalize the active slots of alpha row [time] by its sum, read back
   from [scale.(time)] where the producing step stored it.  The sum
   travels through the scale buffer rather than as a float argument:
   without flambda a float crossing a function boundary is boxed, and
   this call sits on the per-observation hot path. *)
let normalize_row ws ~s ~time ~base ~len =
  let alpha = ws.alpha and act = ws.act in
  let row = time * s in
  let inv = 1. /. Ba.unsafe_get ws.scale time in
  for idx = 0 to len - 1 do
    let st = Array.unsafe_get act (base + idx) in
    Ba.unsafe_set alpha (row + st) (Ba.unsafe_get alpha (row + st) *. inv)
  done

(* One normalized forward step at [time > 0] over the active sets.  A
   class [r] addresses both its emission row and its active-state row
   at offset [r * s], so one [base] serves both tables and there is no
   per-kind dispatch.  The inner sum reads the transposed transitions:
   for a fixed successor [st'] the predecessors walk the contiguous row
   [a_t.(st'*s + ..)].  Only slots listed in a time's active set are
   written; every later read is masked by the same active set, so the
   untouched slots are never observed. *)
let fwd_step ws ~s ~time =
  let cls = ws.cls and act_len = ws.act_len and act = ws.act in
  let alpha = ws.alpha and a_t = ws.a_t and e_all = ws.e_all in
  let r = Array.unsafe_get cls time and rp = Array.unsafe_get cls (time - 1) in
  let base = r * s and len = Array.unsafe_get act_len r in
  let basep = rp * s and lenp = Array.unsafe_get act_len rp in
  let row = time * s and rowp = (time - 1) * s in
  let sc = ref 0. in
  for idx = 0 to len - 1 do
    let st' = Array.unsafe_get act (base + idx) in
    let trow = st' * s in
    let acc = ref 0. in
    for idxp = 0 to lenp - 1 do
      let st = Array.unsafe_get act (basep + idxp) in
      acc :=
        !acc
        +. (Ba.unsafe_get alpha (rowp + st) *. Ba.unsafe_get a_t (trow + st))
    done;
    let v = !acc *. Ba.unsafe_get e_all (base + st') in
    Ba.unsafe_set alpha (row + st') v;
    sc := !sc +. v
  done;
  Ba.unsafe_set ws.scale time !sc;
  if Ba.unsafe_get ws.scale time <= 0. then zero_likelihood time;
  normalize_row ws ~s ~time ~base ~len

(* Scaled forward recursion (Rabiner's \hat{alpha}) over the whole
   [tt]-step sequence, seeded from pi: writes every alpha row and scale
   and returns the log-likelihood, the sum of the log scales. *)
let forward ws (t : model) ~tt =
  let s = t.s in
  let act = ws.act and e_all = ws.e_all and pi = ws.pi_b in
  let alpha = ws.alpha and scale = ws.scale in
  let r0 = Array.unsafe_get ws.cls 0 in
  let base0 = r0 * s and len0 = Array.unsafe_get ws.act_len r0 in
  let s0 = ref 0. in
  for idx = 0 to len0 - 1 do
    let st = Array.unsafe_get act (base0 + idx) in
    let v = Ba.unsafe_get pi st *. Ba.unsafe_get e_all (base0 + st) in
    Ba.unsafe_set alpha st v;
    s0 := !s0 +. v
  done;
  Ba.unsafe_set scale 0 !s0;
  if Ba.unsafe_get scale 0 <= 0. then zero_likelihood 0;
  normalize_row ws ~s ~time:0 ~base:base0 ~len:len0;
  let ll = ref (log (Ba.unsafe_get scale 0)) in
  for time = 1 to tt - 1 do
    fwd_step ws ~s ~time;
    ll := !ll +. log (Ba.unsafe_get scale time)
  done;
  !ll

(* Fill the [tmp] scratch with
   tmp(st') = e(st', o_{time+1}) * beta_{time+1}(st') / scale_{time+1}
   over the states active at [time + 1]: the shared factor of a
   backward step and of the transition statistics at [time]. *)
let fill_tmp ws ~s ~time ~base1 ~len1 =
  let tmp = ws.tmp and e_all = ws.e_all and beta = ws.beta and act = ws.act in
  let row1 = (time + 1) * s in
  let inv = 1. /. Ba.unsafe_get ws.scale (time + 1) in
  for idx1 = 0 to len1 - 1 do
    let st' = Array.unsafe_get act (base1 + idx1) in
    Ba.unsafe_set tmp st'
      (Ba.unsafe_get e_all (base1 + st') *. Ba.unsafe_get beta (row1 + st') *. inv)
  done

(* The scaled backward recursion and the E-step statistics in one
   descending-time pass over the whole [tt]-step sequence; requires a
   completed forward pass (true scales).  The accumulators are cleared,
   beta is seeded with ones at [tt - 1], and then at each [time]:
   - for [time <= tt - 2], every product p = a(st, st') * tmp(st') over
     active pairs is formed once, summed into beta_time(st) and added,
     times alpha_time(st), to xi; gamma_sum (the transition-count
     denominator) takes alpha_time(st) * beta_time(st);
   - the emission or loss counts take the same alpha * beta, branched
     once per time step on the precomputed class.
   Every accumulator cell therefore receives its contributions in
   descending time order.  The contraction walks contiguous rows of the
   row-major transition copy. *)
let backward_estep ws (t : model) ~tt =
  let s = t.s and m = t.m in
  let alpha = ws.alpha and beta = ws.beta and cls = ws.cls in
  let act = ws.act and act_len = ws.act_len in
  let w = ws.w and a_r = ws.a_r and tmp = ws.tmp in
  let xi = ws.xi and gsum = ws.gamma_sum in
  let cobs = ws.count_obs and closs = ws.count_loss in
  fill_range xi 0 (s * s) 0.;
  fill_range gsum 0 s 0.;
  fill_range cobs 0 (s * m) 0.;
  fill_range closs 0 (s * m) 0.;
  let rl = Array.unsafe_get cls (tt - 1) in
  let basel = rl * s and lenl = Array.unsafe_get act_len rl in
  let rowl = (tt - 1) * s in
  for idx = 0 to lenl - 1 do
    Ba.unsafe_set beta (rowl + Array.unsafe_get act (basel + idx)) 1.
  done;
  for time = tt - 1 downto 0 do
    let r = Array.unsafe_get cls time in
    let base = r * s and len = Array.unsafe_get act_len r in
    let row = time * s in
    if time <= tt - 2 then begin
      let r1 = Array.unsafe_get cls (time + 1) in
      let base1 = r1 * s and len1 = Array.unsafe_get act_len r1 in
      fill_tmp ws ~s ~time ~base1 ~len1;
      for idx = 0 to len - 1 do
        let st = Array.unsafe_get act (base + idx) in
        let a_ts = Ba.unsafe_get alpha (row + st) in
        let arow = st * s in
        let acc = ref 0. in
        for idx1 = 0 to len1 - 1 do
          let st' = Array.unsafe_get act (base1 + idx1) in
          let kx = arow + st' in
          let p = Ba.unsafe_get a_r kx *. Ba.unsafe_get tmp st' in
          acc := !acc +. p;
          Ba.unsafe_set xi kx (Ba.unsafe_get xi kx +. (a_ts *. p))
        done;
        Ba.unsafe_set beta (row + st) !acc;
        Ba.unsafe_set gsum st (Ba.unsafe_get gsum st +. (a_ts *. !acc))
      done
    end;
    if r < m then
      for idx = 0 to len - 1 do
        let st = Array.unsafe_get act (base + idx) in
        let g = Ba.unsafe_get alpha (row + st) *. Ba.unsafe_get beta (row + st) in
        let ko = (st * m) + r in
        Ba.unsafe_set cobs ko (Ba.unsafe_get cobs ko +. g)
      done
    else
      for idx = 0 to len - 1 do
        let st = Array.unsafe_get act (base + idx) in
        let g = Ba.unsafe_get alpha (row + st) *. Ba.unsafe_get beta (row + st) in
        let wbase = st * m in
        for j = 0 to m - 1 do
          let kl = wbase + j in
          Ba.unsafe_set closs kl
            (Ba.unsafe_get closs kl +. (g *. Ba.unsafe_get w (wbase + j)))
        done
      done
  done
(* lint: end-hot *)
