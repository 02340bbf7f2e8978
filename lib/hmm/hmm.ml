type t = {
  n : int;
  m : int;
  pi : float array;
  a : float array array;
  b : float array array;
  c : float array;
}

type observation = int option

type fit_stats = Em.fit_stats = {
  iterations : int;
  log_likelihood : float;
  converged : bool;
  skipped_restarts : int;
}

let pp_fit_stats = Em.pp_fit_stats

let clamp_prob p = Float.max 1e-6 (Float.min (1. -. 1e-6) p)

let init_random rng ~n ~m ~loss_fraction =
  if n <= 0 || m <= 0 then invalid_arg "Hmm.init_random: n and m must be positive";
  let jitter () = 0.8 +. (0.4 *. Stats.Rng.float rng) in
  {
    n;
    m;
    pi = Stats.Sampler.dirichlet_like rng n;
    a = Stats.Matrix.random_stochastic rng n n;
    b = Stats.Matrix.random_stochastic rng n m;
    c = Array.init m (fun _ -> clamp_prob (loss_fraction *. jitter ()));
  }

(* See Mmhd.neighbor_attribution: empirical loss-to-symbol attribution
   used to seed [c]. *)
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

let init_informed rng ~n ~m obs =
  let seen, lost = neighbor_attribution ~m obs in
  let jitter () = 0.85 +. (0.3 *. Stats.Rng.float rng) in
  let c = Array.init m (fun j -> clamp_prob (lost.(j) /. (seen.(j) +. lost.(j)))) in
  (* Tilt each state's emissions toward a different end of the symbol
     axis: identical rows are a saddle point of the likelihood from
     which EM cannot separate the hidden states. *)
  let tilt i j =
    if n = 1 || m = 1 then 1.
    else
      let dir = (2. *. float_of_int i /. float_of_int (n - 1)) -. 1. in
      let pos = (2. *. float_of_int j /. float_of_int (m - 1)) -. 1. in
      exp (1.2 *. dir *. pos)
  in
  let b = Array.init n (fun i -> Array.init m (fun j -> seen.(j) *. tilt i j *. jitter ())) in
  Stats.Matrix.row_normalize b;
  {
    n;
    m;
    pi = Stats.Sampler.dirichlet_like rng n;
    a = Stats.Matrix.random_stochastic rng n n;
    b;
    c;
  }

let is_prob_vector v = Array.for_all (fun p -> p >= 0. && p <= 1.) v

let validate t =
  let stochastic_vec v =
    Stats.Float_cmp.approx_eq ~eps:1e-6 (Array.fold_left ( +. ) 0. v) 1.
  in
  if Array.length t.pi <> t.n || not (stochastic_vec t.pi) || not (is_prob_vector t.pi)
  then invalid_arg "Hmm.validate: pi is not a distribution over n states";
  if Stats.Matrix.dims t.a <> (t.n, t.n) || not (Stats.Matrix.is_stochastic t.a) then
    invalid_arg "Hmm.validate: a is not an n-by-n stochastic matrix";
  if Stats.Matrix.dims t.b <> (t.n, t.m) || not (Stats.Matrix.is_stochastic t.b) then
    invalid_arg "Hmm.validate: b is not an n-by-m stochastic matrix";
  if Array.length t.c <> t.m || not (is_prob_vector t.c) then
    invalid_arg "Hmm.validate: c is not a vector of m probabilities"

(* --- Em kernel bridge -------------------------------------------------- *)

let flatten rows r c =
  let out = Array.make (r * c) 0. in
  for i = 0 to r - 1 do
    Array.blit rows.(i) 0 out (i * c) c
  done;
  out

let unflatten flat r c = Array.init r (fun i -> Array.sub flat (i * c) c)

let to_em t =
  {
    Em.s = t.n;
    m = t.m;
    pi = Array.copy t.pi;
    a = flatten t.a t.n t.n;
    b = flatten t.b t.n t.m;
    c = Array.copy t.c;
  }

let of_em ~n ~m (e : Em.model) =
  {
    n;
    m;
    pi = Array.copy e.Em.pi;
    a = unflatten e.Em.a n n;
    b = unflatten e.Em.b n m;
    c = Array.copy e.Em.c;
  }

let ws = Em.domain_ws

let emission t i = function
  | Some j -> t.b.(i).(j) *. (1. -. t.c.(j))
  | None ->
      let acc = ref 0. in
      for j = 0 to t.m - 1 do
        acc := !acc +. (t.b.(i).(j) *. t.c.(j))
      done;
      !acc

let viterbi t obs =
  let tt = Array.length obs in
  if tt = 0 then invalid_arg "Hmm.viterbi: empty observation sequence";
  let n = t.n in
  let log_safe x = if x <= 0. then neg_infinity else log x in
  let delta = Array.make_matrix tt n neg_infinity in
  let back = Array.make_matrix tt n 0 in
  for i = 0 to n - 1 do
    delta.(0).(i) <- log_safe t.pi.(i) +. log_safe (emission t i obs.(0))
  done;
  for time = 1 to tt - 1 do
    for i = 0 to n - 1 do
      let e = log_safe (emission t i obs.(time)) in
      for k = 0 to n - 1 do
        let cand = delta.(time - 1).(k) +. log_safe t.a.(k).(i) +. e in
        if cand > delta.(time).(i) then begin
          delta.(time).(i) <- cand;
          back.(time).(i) <- k
        end
      done
    done
  done;
  let best = ref 0 in
  for i = 1 to n - 1 do
    if delta.(tt - 1).(i) > delta.(tt - 1).(!best) then best := i
  done;
  let path = Array.make tt 0 in
  path.(tt - 1) <- !best;
  for time = tt - 2 downto 0 do
    path.(time) <- back.(time + 1).(path.(time + 1))
  done;
  (path, delta.(tt - 1).(!best))

let log_likelihood t obs = Em.log_likelihood ~ws:(ws ()) (to_em t) obs
let state_posteriors t obs = Em.state_posteriors ~ws:(ws ()) (to_em t) obs

let fit_from ?eps ?max_iter t0 obs =
  let fitted, stats =
    Em.fit_from ~ws:(ws ()) ?eps ?max_iter ~update_b:true (to_em t0) obs
  in
  (of_em ~n:t0.n ~m:t0.m fitted, stats)

let fit ?eps ?max_iter ?(restarts = 2) ?(domains = 1) ~rng ~n ~m obs =
  if restarts <= 0 then invalid_arg "Hmm.fit: restarts must be positive";
  (* Every starting point is the data-driven informed initialization
     with independent jitter, and the best converged attempt wins.
     Purely random initializations are deliberately not raced by
     likelihood: the model family admits degenerate optima in which a
     rarely-observed symbol absorbs all the losses (its loss
     probability is driven toward 1 at negligible cost), and those
     optima can dominate the likelihood while being statistically
     meaningless.  Informed starts are anchored by the neighbour
     attribution, so comparing them by likelihood is safe.
     Each restart draws from its own pre-split RNG, so the winner is
     identical whether the restarts run serially or across domains. *)
  let rngs = Array.init restarts (fun _ -> Stats.Rng.split rng) in
  let init k = to_em (init_informed rngs.(k) ~n ~m obs) in
  let fitted, stats =
    Em.fit_restarts ?eps ?max_iter ~domains ~restarts ~update_b:true ~init
      obs
  in
  (of_em ~n ~m fitted, stats)

let virtual_delay_pmf t obs =
  if not (Array.exists (fun o -> o = None) obs) then
    invalid_arg "Hmm.virtual_delay_pmf: no loss in the sequence";
  Em.virtual_delay_pmf ~ws:(ws ()) (to_em t) obs

let simulate rng t ~len =
  if len <= 0 then invalid_arg "Hmm.simulate: len <= 0";
  validate t;
  let states = Array.make len 0 in
  let obs = Array.make len None in
  let state = ref (Stats.Sampler.categorical rng t.pi) in
  for time = 0 to len - 1 do
    states.(time) <- !state;
    let j = Stats.Sampler.categorical rng t.b.(!state) in
    obs.(time) <- (if Stats.Sampler.bernoulli rng ~p:t.c.(j) then None else Some j);
    state := Stats.Sampler.categorical rng t.a.(!state)
  done;
  (obs, states)
