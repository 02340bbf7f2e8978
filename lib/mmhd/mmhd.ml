(* The MMHD is the Em model whose emission matrix is the fixed 0/1
   indicator "state (x, y) emits symbol y" — flattened state [st] emits
   [st mod m].  EM must not re-estimate it ([update_b = false]); the
   kernel's active-state machinery recovers the sparse O(T*n*S) sweeps
   from its zero pattern. *)
let make ~n ~m ~pi ~a ~c =
  let s = n * m in
  let b = Array.make (s * m) 0. in
  for st = 0 to s - 1 do
    b.((st * m) + (st mod m)) <- 1.
  done;
  { Em.s; m; pi; a; b; c }

let clamp_prob p = Float.max 1e-6 (Float.min (1. -. 1e-6) p)

(* The order of the draws from [rng] (here c, a, pi; pi, a in
   [init_informed]) fixes every seeded model, and the EM fingerprint
   tests pin it: keep the bindings in this order. *)
let init_random rng ~n ~m ~loss_fraction =
  if n <= 0 || m <= 0 then invalid_arg "Mmhd.init_random: n and m must be positive";
  let s = n * m in
  let jitter () = 0.8 +. (0.4 *. Stats.Rng.float rng) in
  let c = Array.init m (fun _ -> clamp_prob (loss_fraction *. jitter ())) in
  let a = Stats.Matrix.random_stochastic rng s s in
  let pi = Stats.Sampler.dirichlet_like rng s in
  make ~n ~m ~pi ~a ~c

(* Symbol bigram frequencies over the observed (non-loss) subsequence,
   Laplace-smoothed, as a row-major m-by-m matrix; used to seed the
   transition structure. *)
let observed_bigrams ~m obs =
  let big = Array.make (m * m) 0.2 in
  for time = 1 to Array.length obs - 1 do
    let i = obs.(time - 1) and j = obs.(time) in
    if i <> m && j <> m then big.((i * m) + j) <- big.((i * m) + j) +. 1.
  done;
  Stats.Matrix.row_normalize ~cols:m big;
  big

let init_informed rng ~n ~m obs =
  let seen, lost = Em.neighbor_attribution ~m obs in
  let big = observed_bigrams ~m obs in
  let s = n * m in
  let jitter () = 0.85 +. (0.3 *. Stats.Rng.float rng) in
  let c = Array.init m (fun j -> clamp_prob (lost.(j) /. (seen.(j) +. lost.(j)))) in
  let total_seen = Array.fold_left ( +. ) 0. seen in
  let pi =
    Array.init s (fun st -> seen.(st mod m) /. total_seen /. float_of_int n *. jitter ())
  in
  let pi_total = Array.fold_left ( +. ) 0. pi in
  let pi = Array.map (fun p -> p /. pi_total) pi in
  let a =
    Array.init (s * s) (fun k ->
        let y = k / s mod m and y' = k mod s mod m in
        big.((y * m) + y') /. float_of_int n *. jitter ())
  in
  Stats.Matrix.row_normalize ~cols:s a;
  make ~n ~m ~pi ~a ~c

let fit_from ?eps ?max_iter t0 obs =
  Em.fit_from ~ws:(Em.domain_ws ()) ?eps ?max_iter ~update_b:false t0 obs

let fit ?eps ?max_iter ?restarts ~rng ~n ~m obs =
  Em.fit_informed ?eps ?max_iter ?restarts ~who:"Mmhd.fit" ~rng ~update_b:false
    ~init:(fun rng -> init_informed rng ~n ~m obs)
    obs

let simulate rng (t : Em.model) ~len =
  if len <= 0 then invalid_arg "Mmhd.simulate: len <= 0";
  Em.validate t;
  let s = t.s in
  let path = Array.make len 0 in
  let obs = Array.make len 0 in
  let state = ref (Stats.Sampler.categorical rng t.pi) in
  for time = 0 to len - 1 do
    path.(time) <- !state;
    let y = !state mod t.m in
    obs.(time) <- (if Stats.Sampler.bernoulli rng ~p:t.c.(y) then t.m else y);
    state := Stats.Sampler.categorical rng (Array.sub t.a (!state * s) s)
  done;
  (obs, path)
