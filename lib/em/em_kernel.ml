(* Hot state and whole-sequence kernels for the shared EM sweep.

   This module owns the numerical inner loops only: the public API, the
   EM update logic and the informed-restart fit live in [Em].

   All float sweep state lives in flat [float array] buffers (unboxed
   float64 storage); [Array.unsafe_get]/[unsafe_set] appear strictly
   inside the [lint: hot] fence below (dcl-lint rule R5 checks both
   directions for lib/em).  The alpha and beta buffers are compact: row
   [t] holds only the states active for its observation class, in the
   order of that class's active list, and each pass finds its rows by a
   running offset.  A sweep is two passes over the whole sequence, the
   forward recursion and then the backward recursion fused with the
   E-step statistics, each run serially; the only parallelism is the
   fleet's fan-out over paths.  Forward scaling is lazy ([forward]). *)

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
  (* Compact sweep buffers: row [t] holds act_len.(cls.(t)) values,
     rows packed in time order. *)
  mutable alpha : float array;
  mutable beta : float array;
  mutable scale : float array; (* T, 1 where a row was left unnormalized *)
  (* Observation classes: cls.(t) = j for [Some j], m for [None].  A
     class is both the row of the emission table and the row of the
     active-state table, so the sweeps never touch the boxed
     [int option] observations. *)
  mutable cls : int array; (* T *)
  mutable cls_count : int array; (* M+1, occurrences of each class *)
  mutable total : int; (* live length of alpha and beta *)
  (* Per-sweep emission table, class-major: row j < m holds
     e(st, Some j) at e_all.(j*s + st), row m holds the loss emission
     e(st, None) at e_all.(m*s + st). *)
  mutable e_all : float array; (* (M+1)*S *)
  mutable w : float array; (* S*M, state-major loss-symbol weights *)
  (* Active-state lists: row j < m lists states that can emit symbol j,
     row m lists states with positive loss emission. *)
  mutable act : int array; (* (M+1)*S *)
  mutable act_len : int array; (* M+1 *)
  (* EM accumulators (the M-step reads these). *)
  mutable xi : float array; (* S*S *)
  mutable gamma_sum : float array; (* S *)
  mutable count_obs : float array; (* S*M *)
  mutable count_loss : float array; (* S*M *)
  mutable tmp : float array; (* S, backward step scratch *)
  mutable cap_t : int;
  mutable cap_s : int;
  mutable cap_m : int;
}

let create () =
  {
    alpha = [||];
    beta = [||];
    scale = [||];
    cls = [||];
    cls_count = [||];
    total = 0;
    e_all = [||];
    w = [||];
    act = [||];
    act_len = [||];
    xi = [||];
    gamma_sum = [||];
    count_obs = [||];
    count_loss = [||];
    tmp = [||];
    cap_t = 0;
    cap_s = 0;
    cap_m = 0;
  }

(* Grow (never shrink) every buffer to hold a [tt]-step sweep of an
   [s]-state, [m]-symbol model.  Amortized: a workspace reused across
   sweeps and restarts allocates nothing after the first call.  The
   compact alpha and beta rows never exceed [s] values, so [tt * s]
   bounds their live length. *)
let reserve ws ~tt ~s ~m =
  let fbuf = Array.create_float in
  if s > ws.cap_s || m > ws.cap_m then begin
    let cs = max s ws.cap_s and cm = max m ws.cap_m in
    ws.e_all <- fbuf ((cm + 1) * cs);
    ws.w <- fbuf (cs * cm);
    ws.act <- Array.make ((cm + 1) * cs) 0;
    ws.act_len <- Array.make (cm + 1) 0;
    ws.cls_count <- Array.make (cm + 1) 0;
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

let zero_likelihood time =
  Obs.Counter.incr m_zero;
  raise (Zero_likelihood time)

(* lint: hot *)

(* Collapse the boxed observations into integer classes once per fit
   (once per call for the one-shot entry points); every pass then reads
   the flat [cls] array instead of matching an [int option] (a pointer
   dereference plus a branch) at each of its per-time-step accesses.
   The symbol range check rides along; once it has passed, the classes
   are counted for [prepare]'s compact-buffer length. *)
let classify ws (t : model) obs =
  let m = t.m and cls = ws.cls and count = ws.cls_count in
  let tt = Array.length obs in
  let bad = ref 0 in
  for time = 0 to tt - 1 do
    match Array.unsafe_get obs time with
    | Some j ->
        bad := !bad lor j lor (m - 1 - j);
        Array.unsafe_set cls time j
    | None -> Array.unsafe_set cls time m
  done;
  if !bad < 0 then reject_symbols ~who:"Em" ~m obs;
  for r = 0 to m do
    Array.unsafe_set count r 0
  done;
  for time = 0 to tt - 1 do
    let r = Array.unsafe_get cls time in
    Array.unsafe_set count r (Array.unsafe_get count r + 1)
  done

(* Fill the emission table, active-state lists and the live length of
   the compact alpha/beta buffers for [t] — once per class per sweep,
   however many times each class occurs in the sequence.  The
   missing-value emission (paper Section V) lives here, shared by both
   model families:
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
      Array.unsafe_set e_all (row + st) e;
      if e > 0. then begin
        Array.unsafe_set act (row + !len) st;
        incr len
      end
    done;
    Array.unsafe_set act_len j !len
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
    Array.unsafe_set e_all (loss_row + st) e;
    if e > 0. then begin
      Array.unsafe_set act (loss_row + !loss_len) st;
      incr loss_len;
      let inv = 1. /. e in
      for j = 0 to m - 1 do
        Array.unsafe_set w (base + j)
          (Array.unsafe_get b (base + j) *. Array.unsafe_get c j *. inv)
      done
    end
    else
      for j = 0 to m - 1 do
        Array.unsafe_set w (base + j) 0.
      done
  done;
  Array.unsafe_set act_len m !loss_len;
  let total = ref 0 in
  for r = 0 to m do
    total := !total + (Array.unsafe_get ws.cls_count r * Array.unsafe_get act_len r)
  done;
  ws.total <- !total

(* Divide the row at [off] by [scale.(time)]; no float crosses the call. *)
let normalize_row alpha scale ~time ~off ~len =
  let inv = 1. /. Array.unsafe_get scale time in
  for idx = off to off + len - 1 do
    Array.unsafe_set alpha idx (Array.unsafe_get alpha idx *. inv)
  done

(* Lazily scaled forward recursion over the whole [tt]-step sequence,
   seeded from pi: writes every compact alpha row and every scale.  Row
   [time] starts at the running offset [off]; a class [r] addresses both
   its emission row and its active-state row at [r * s].  A row is
   normalized (its sum stored as its scale) only at [0], at [tt - 1] and
   below [renorm_floor]; elsewhere its scale is 1 and its sum waits in
   [pending], so a step has no division.  Such a row holds a filtered
   probability p as p times its sum (>= 2^-256): it flushes p below
   about 2^-766, where per-step scaling keeps p down to 2^-1022.
   Guard: a sum below [guard_floor] restarts the pass at row 1 with
   every row normalized ([floor] at infinity: per-step scaling), so
   only per-step scaling raises [Zero_likelihood]. *)
let renorm_floor = 0x1p-256 and guard_floor = 0x1p-512

let forward ws (t : model) ~tt =
  let s = t.s and a = t.a and pi = t.pi in
  let cls = ws.cls and act = ws.act and act_len = ws.act_len in
  let e_all = ws.e_all and alpha = ws.alpha and scale = ws.scale in
  let r0 = Array.unsafe_get cls 0 in
  let base0 = r0 * s and len0 = Array.unsafe_get act_len r0 in
  let s0 = ref 0. in
  for idx = 0 to len0 - 1 do
    let st = Array.unsafe_get act (base0 + idx) in
    let v = Array.unsafe_get pi st *. Array.unsafe_get e_all (base0 + st) in
    Array.unsafe_set alpha idx v;
    s0 := !s0 +. v
  done;
  Array.unsafe_set scale 0 !s0;
  if !s0 <= 0. then zero_likelihood 0;
  normalize_row alpha scale ~time:0 ~off:0 ~len:len0;
  let off = ref 0 and pending = ref 0. and time = ref 1 and floor = ref renorm_floor in
  while !time < tt do
    let time_ = !time in
    let r = Array.unsafe_get cls time_ and rp = Array.unsafe_get cls (time_ - 1) in
    let base = r * s and len = Array.unsafe_get act_len r in
    let basep = rp * s and lenp = Array.unsafe_get act_len rp in
    let offp = !off in
    let row = offp + lenp in
    let sc = ref 0. in
    for idx = 0 to len - 1 do
      let st' = Array.unsafe_get act (base + idx) in
      let acc = ref 0. in
      for idxp = 0 to lenp - 1 do
        let st = Array.unsafe_get act (basep + idxp) in
        acc :=
          !acc
          +. (Array.unsafe_get alpha (offp + idxp) *. Array.unsafe_get a ((st * s) + st'))
      done;
      let v = !acc *. Array.unsafe_get e_all (base + st') in
      Array.unsafe_set alpha (row + idx) v;
      sc := !sc +. v
    done;
    let sc = !sc in
    if sc >= !floor then begin
      Array.unsafe_set scale time_ 1.;
      pending := sc;
      off := row;
      time := time_ + 1
    end
    else if sc < guard_floor && !floor < Float.infinity then begin
      (* Row 0 is normalized and still in place. *)
      floor := Float.infinity;
      pending := 0.;
      off := 0;
      time := 1
    end
    else begin
      if sc <= 0. then zero_likelihood time_;
      Array.unsafe_set scale time_ sc;
      normalize_row alpha scale ~time:time_ ~off:row ~len;
      pending := 0.;
      off := row;
      time := time_ + 1
    end
  done;
  (* The last row is always normalized. *)
  if !pending > 0. then begin
    Array.unsafe_set scale (tt - 1) !pending;
    normalize_row alpha scale ~time:(tt - 1) ~off:!off
      ~len:(Array.unsafe_get act_len (Array.unsafe_get cls (tt - 1)))
  end

(* The log-likelihood of the last forward pass over [tt] steps: the sum
   of its log scales other than 1 (each an exact +0), in ascending time. *)
let log_likelihood ws ~tt =
  let scale = ws.scale in
  let ll = ref (log (Array.unsafe_get scale 0)) in
  for time = 1 to tt - 1 do
    let sc = Array.unsafe_get scale time in
    (* lint: allow R3 a scale of exactly 1 is the marker of a step the lazy pass left unnormalized; skipping its log (+0) is exact *)
    if not (Float.equal sc 1.) then ll := !ll +. log sc
  done;
  !ll

(* The scaled backward recursion and the E-step statistics in one
   descending-time pass over the whole [tt]-step sequence; requires a
   completed forward pass (true scales).  The accumulators are cleared,
   beta is seeded with ones at [tt - 1] (the last compact row, at
   [total - act_len]), and then at each [time], with row [time] at the
   running offset [off]:
   - for [time <= tt - 2], [tmp] takes
     e(st', o_{time+1}) * beta_{time+1}(st') / scale_{time+1} (no
     division by a scale of 1) over the row after, indexed like that
     row; every product
     p = a(st, st') * tmp(st') over active pairs is formed once, summed
     into beta_time(st) and added, times alpha_time(st), to xi;
     gamma_sum (the transition-count denominator) takes
     alpha_time(st) * beta_time(st);
   - the emission or loss counts take the same alpha * beta, branched
     once per time step on the precomputed class.
   Every accumulator cell therefore receives its contributions in
   descending time order. *)
let backward_estep ws (t : model) ~tt =
  let s = t.s and m = t.m and a = t.a in
  let alpha = ws.alpha and beta = ws.beta and scale = ws.scale in
  let cls = ws.cls and act = ws.act and act_len = ws.act_len in
  let e_all = ws.e_all and w = ws.w and tmp = ws.tmp in
  let xi = ws.xi and gsum = ws.gamma_sum in
  let cobs = ws.count_obs and closs = ws.count_loss in
  for i = 0 to (s * s) - 1 do
    Array.unsafe_set xi i 0.
  done;
  for i = 0 to s - 1 do
    Array.unsafe_set gsum i 0.
  done;
  for i = 0 to (s * m) - 1 do
    Array.unsafe_set cobs i 0.;
    Array.unsafe_set closs i 0.
  done;
  let lenl = Array.unsafe_get act_len (Array.unsafe_get cls (tt - 1)) in
  (* [off]: the offset of the row the loop body starts at, seeded with
     the last row's. *)
  let off = ref (ws.total - lenl) in
  for idx = 0 to lenl - 1 do
    Array.unsafe_set beta (!off + idx) 1.
  done;
  for time = tt - 1 downto 0 do
    let r = Array.unsafe_get cls time in
    let base = r * s and len = Array.unsafe_get act_len r in
    if time <= tt - 2 then begin
      let r1 = Array.unsafe_get cls (time + 1) in
      let base1 = r1 * s and len1 = Array.unsafe_get act_len r1 in
      let off1 = !off in
      let row = off1 - len in
      let sc1 = Array.unsafe_get scale (time + 1) in
      (* lint: allow R3 a scale of exactly 1 marks an unnormalized step, whose inverse is exactly 1 *)
      let inv = if Float.equal sc1 1. then 1. else 1. /. sc1 in
      for idx1 = 0 to len1 - 1 do
        let st' = Array.unsafe_get act (base1 + idx1) in
        Array.unsafe_set tmp idx1
          (Array.unsafe_get e_all (base1 + st') *. Array.unsafe_get beta (off1 + idx1) *. inv)
      done;
      for idx = 0 to len - 1 do
        let st = Array.unsafe_get act (base + idx) in
        let a_ts = Array.unsafe_get alpha (row + idx) in
        let arow = st * s in
        let acc = ref 0. in
        for idx1 = 0 to len1 - 1 do
          let kx = arow + Array.unsafe_get act (base1 + idx1) in
          let p = Array.unsafe_get a kx *. Array.unsafe_get tmp idx1 in
          acc := !acc +. p;
          Array.unsafe_set xi kx (Array.unsafe_get xi kx +. (a_ts *. p))
        done;
        Array.unsafe_set beta (row + idx) !acc;
        Array.unsafe_set gsum st (Array.unsafe_get gsum st +. (a_ts *. !acc))
      done;
      off := row
    end;
    let row = !off in
    if r < m then
      for idx = 0 to len - 1 do
        let st = Array.unsafe_get act (base + idx) in
        let g = Array.unsafe_get alpha (row + idx) *. Array.unsafe_get beta (row + idx) in
        let ko = (st * m) + r in
        Array.unsafe_set cobs ko (Array.unsafe_get cobs ko +. g)
      done
    else
      for idx = 0 to len - 1 do
        let st = Array.unsafe_get act (base + idx) in
        let g = Array.unsafe_get alpha (row + idx) *. Array.unsafe_get beta (row + idx) in
        let wbase = st * m in
        for j = 0 to m - 1 do
          let kl = wbase + j in
          Array.unsafe_set closs kl
            (Array.unsafe_get closs kl +. (g *. Array.unsafe_get w (wbase + j)))
        done
      done
  done
(* lint: end-hot *)
