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

let init_informed rng ~n ~m obs =
  let seen, lost = Em.neighbor_attribution ~m obs in
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

let flatten rows = Array.concat (Array.to_list rows)
let unflatten flat r c = Array.init r (fun i -> Array.sub flat (i * c) c)

let to_em t =
  {
    Em.s = t.n;
    m = t.m;
    pi = Array.copy t.pi;
    a = flatten t.a;
    b = flatten t.b;
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
let lift ~n ~m (e, stats) = (of_em ~n ~m e, stats)
let viterbi t obs = Em.viterbi ~who:"Hmm.viterbi" ~ws:(ws ()) (to_em t) obs
let log_likelihood t obs = Em.log_likelihood ~ws:(ws ()) (to_em t) obs
let state_posteriors t obs = Em.state_posteriors ~ws:(ws ()) (to_em t) obs

let fit_from ?eps ?max_iter t0 obs =
  lift ~n:t0.n ~m:t0.m
    (Em.fit_from ~ws:(ws ()) ?eps ?max_iter ~update_b:true (to_em t0) obs)

let fit ?eps ?max_iter ?restarts ?domains ~rng ~n ~m obs =
  let init rng = to_em (init_informed rng ~n ~m obs) in
  lift ~n ~m
    (Em.fit_informed ?eps ?max_iter ?restarts ?domains ~who:"Hmm.fit" ~rng ~update_b:true
       ~init obs)

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
