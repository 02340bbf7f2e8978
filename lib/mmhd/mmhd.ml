type t = {
  n : int;
  m : int;
  pi : float array;
  a : float array array;
  c : float array;
}

type observation = int option

type fit_stats = Em.fit_stats = {
  iterations : int;
  log_likelihood : float;
  converged : bool;
  skipped_restarts : int;
}

let states t = t.n * t.m

let state_of t ~hidden ~symbol =
  if hidden < 0 || hidden >= t.n || symbol < 0 || symbol >= t.m then
    invalid_arg "Mmhd.state_of: out of range";
  (hidden * t.m) + symbol

let symbol_of t s = s mod t.m
let hidden_of t s = s / t.m

let clamp_prob p = Float.max 1e-6 (Float.min (1. -. 1e-6) p)

let init_random rng ~n ~m ~loss_fraction =
  if n <= 0 || m <= 0 then invalid_arg "Mmhd.init_random: n and m must be positive";
  let s = n * m in
  let jitter () = 0.8 +. (0.4 *. Stats.Rng.float rng) in
  {
    n;
    m;
    pi = Stats.Sampler.dirichlet_like rng s;
    a = Stats.Matrix.random_stochastic rng s s;
    c = Array.init m (fun _ -> clamp_prob (loss_fraction *. jitter ()));
  }

(* Symbol bigram frequencies over the observed (non-loss) subsequence,
   Laplace-smoothed; used to seed the transition structure. *)
let observed_bigrams ~m obs =
  let big = Array.init m (fun _ -> Array.make m 0.2) in
  let prev = ref None in
  Array.iter
    (fun o ->
      (match (!prev, o) with
      | Some i, Some j -> big.(i).(j) <- big.(i).(j) +. 1.
      | _ -> ());
      prev := o)
    obs;
  Stats.Matrix.row_normalize big;
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
    Array.init s (fun st ->
        let y = st mod m in
        let row =
          Array.init s (fun st' -> big.(y).(st' mod m) /. float_of_int n *. jitter ())
        in
        row)
  in
  Stats.Matrix.row_normalize a;
  { n; m; pi; a; c }

let validate t =
  let s = states t in
  let stochastic_vec v =
    Stats.Float_cmp.approx_eq ~eps:1e-6 (Array.fold_left ( +. ) 0. v) 1.
  in
  let is_prob_vector v = Array.for_all (fun p -> p >= 0. && p <= 1.) v in
  if Array.length t.pi <> s || not (stochastic_vec t.pi) || not (is_prob_vector t.pi)
  then invalid_arg "Mmhd.validate: pi is not a distribution over n*m states";
  if Stats.Matrix.dims t.a <> (s, s) || not (Stats.Matrix.is_stochastic t.a) then
    invalid_arg "Mmhd.validate: a is not stochastic over n*m states";
  if Array.length t.c <> t.m || not (is_prob_vector t.c) then
    invalid_arg "Mmhd.validate: c is not a vector of m probabilities"

(* --- Em kernel bridge -------------------------------------------------- *)

(* The MMHD is the Em kernel instance whose emission matrix is the
   fixed 0/1 indicator "state (x, y) emits symbol y" — flattened state
   [st] emits [st mod m].  EM must not re-estimate it ([update_b =
   false]); the kernel's active-state machinery recovers the sparse
   O(T*n*S) sweeps from its zero pattern. *)
let indicator_b ~s ~m =
  let b = Array.make (s * m) 0. in
  for st = 0 to s - 1 do
    b.((st * m) + (st mod m)) <- 1.
  done;
  b

let to_em t =
  let s = states t in
  {
    Em.s;
    m = t.m;
    pi = Array.copy t.pi;
    a = Array.concat (Array.to_list t.a);
    b = indicator_b ~s ~m:t.m;
    c = Array.copy t.c;
  }

let of_em ~n ~m (e : Em.model) =
  let s = n * m in
  {
    n;
    m;
    pi = Array.copy e.Em.pi;
    a = Array.init s (fun st -> Array.sub e.Em.a (st * s) s);
    c = Array.copy e.Em.c;
  }

let ws = Em.domain_ws
let lift ~n ~m (e, stats) = (of_em ~n ~m e, stats)
let viterbi t obs = Em.viterbi ~who:"Mmhd.viterbi" ~ws:(ws ()) (to_em t) obs
let log_likelihood t obs = Em.log_likelihood ~ws:(ws ()) (to_em t) obs
let state_posteriors t obs = Em.state_posteriors ~ws:(ws ()) (to_em t) obs

let fit_from ?eps ?max_iter t0 obs =
  lift ~n:t0.n ~m:t0.m
    (Em.fit_from ~ws:(ws ()) ?eps ?max_iter ~update_b:false (to_em t0) obs)

let fit ?eps ?max_iter ?restarts ?domains ~rng ~n ~m obs =
  let init rng = to_em (init_informed rng ~n ~m obs) in
  lift ~n ~m
    (Em.fit_informed ?eps ?max_iter ?restarts ?domains ~who:"Mmhd.fit" ~rng ~update_b:false
       ~init obs)

let virtual_delay_pmf t obs =
  if not (Array.exists (fun o -> o = None) obs) then
    invalid_arg "Mmhd.virtual_delay_pmf: no loss in the sequence";
  Em.virtual_delay_pmf ~ws:(ws ()) (to_em t) obs

let simulate rng t ~len =
  if len <= 0 then invalid_arg "Mmhd.simulate: len <= 0";
  validate t;
  let path = Array.make len 0 in
  let obs = Array.make len None in
  let state = ref (Stats.Sampler.categorical rng t.pi) in
  for time = 0 to len - 1 do
    path.(time) <- !state;
    let y = symbol_of t !state in
    obs.(time) <- (if Stats.Sampler.bernoulli rng ~p:t.c.(y) then None else Some y);
    state := Stats.Sampler.categorical rng t.a.(!state)
  done;
  (obs, path)
