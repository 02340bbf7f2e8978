let clamp_prob p = Float.max 1e-6 (Float.min (1. -. 1e-6) p)

(* The order of the draws from [rng] (here c, b, a, pi; b, a, pi in
   [init_informed]) fixes every seeded model, and the EM fingerprint
   tests pin it: keep the bindings in this order. *)
let init_random rng ~n ~m ~loss_fraction =
  if n <= 0 || m <= 0 then invalid_arg "Hmm.init_random: n and m must be positive";
  let jitter () = 0.8 +. (0.4 *. Stats.Rng.float rng) in
  let c = Array.init m (fun _ -> clamp_prob (loss_fraction *. jitter ())) in
  let b = Stats.Matrix.random_stochastic rng n m in
  let a = Stats.Matrix.random_stochastic rng n n in
  let pi = Stats.Sampler.dirichlet_like rng n in
  { Em.s = n; m; pi; a; b; c }

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
  let b =
    Array.init (n * m) (fun k ->
        let i = k / m and j = k mod m in
        seen.(j) *. tilt i j *. jitter ())
  in
  Stats.Matrix.row_normalize ~cols:m b;
  let a = Stats.Matrix.random_stochastic rng n n in
  let pi = Stats.Sampler.dirichlet_like rng n in
  { Em.s = n; m; pi; a; b; c }

let fit_from ?eps ?max_iter t0 obs =
  Em.fit_from ~ws:(Em.domain_ws ()) ?eps ?max_iter ~update_b:true t0 obs

let fit ?eps ?max_iter ?restarts ~rng ~n ~m obs =
  Em.fit_informed ?eps ?max_iter ?restarts ~who:"Hmm.fit" ~rng ~update_b:true
    ~init:(fun rng -> init_informed rng ~n ~m obs)
    obs

let simulate rng (t : Em.model) ~len =
  if len <= 0 then invalid_arg "Hmm.simulate: len <= 0";
  Em.validate t;
  let s = t.s and m = t.m in
  let states = Array.make len 0 in
  let obs = Array.make len 0 in
  let state = ref (Stats.Sampler.categorical rng t.pi) in
  for time = 0 to len - 1 do
    states.(time) <- !state;
    let j = Stats.Sampler.categorical rng (Array.sub t.b (!state * m) m) in
    obs.(time) <- (if Stats.Sampler.bernoulli rng ~p:t.c.(j) then m else j);
    state := Stats.Sampler.categorical rng (Array.sub t.a (!state * s) s)
  done;
  (obs, states)
