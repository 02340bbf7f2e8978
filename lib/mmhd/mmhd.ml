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

let pp_fit_stats = Em.pp_fit_stats

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

(* Nearest-surviving-neighbour attribution of losses to symbols: the
   empirical analogue of the posterior the EM will compute.  Seeds the
   initial loss probabilities [c] so that EM starts near solutions that
   explain losses with the symbols actually observed around them,
   instead of drifting to a degenerate optimum where a rarely-observed
   symbol absorbs all losses. *)
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
  let seen, lost = neighbor_attribution ~m obs in
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

let flatten rows r c =
  let out = Array.make (r * c) 0. in
  for i = 0 to r - 1 do
    Array.blit rows.(i) 0 out (i * c) c
  done;
  out

let to_em t =
  let s = states t in
  {
    Em.s;
    m = t.m;
    pi = Array.copy t.pi;
    a = flatten t.a s s;
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

let emission t s = function
  | Some j -> if symbol_of t s = j then 1. -. t.c.(j) else 0.
  | None -> t.c.(symbol_of t s)

(* States compatible with an observation: n states for an observed
   symbol, all n*m for a loss. *)
let active t = function
  | Some j -> Array.init t.n (fun x -> (x * t.m) + j)
  | None -> Array.init (states t) (fun s -> s)

let viterbi t obs =
  let tt = Array.length obs in
  if tt = 0 then invalid_arg "Mmhd.viterbi: empty observation sequence";
  let s_all = states t in
  let log_safe x = if x <= 0. then neg_infinity else log x in
  let act = Array.map (active t) obs in
  let delta = Array.make_matrix tt s_all neg_infinity in
  let back = Array.make_matrix tt s_all 0 in
  Array.iter
    (fun s -> delta.(0).(s) <- log_safe t.pi.(s) +. log_safe (emission t s obs.(0)))
    act.(0);
  for time = 1 to tt - 1 do
    Array.iter
      (fun s' ->
        let e = log_safe (emission t s' obs.(time)) in
        Array.iter
          (fun s ->
            let cand = delta.(time - 1).(s) +. log_safe t.a.(s).(s') +. e in
            if cand > delta.(time).(s') then begin
              delta.(time).(s') <- cand;
              back.(time).(s') <- s
            end)
          act.(time - 1))
      act.(time)
  done;
  let best = ref act.(tt - 1).(0) in
  Array.iter (fun s -> if delta.(tt - 1).(s) > delta.(tt - 1).(!best) then best := s) act.(tt - 1);
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
    Em.fit_from ~ws:(ws ()) ?eps ?max_iter ~update_b:false (to_em t0) obs
  in
  (of_em ~n:t0.n ~m:t0.m fitted, stats)

let fit ?eps ?max_iter ?(restarts = 2) ?(domains = 1) ~rng ~n ~m obs =
  if restarts <= 0 then invalid_arg "Mmhd.fit: restarts must be positive";
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
    Em.fit_restarts ?eps ?max_iter ~domains ~restarts ~update_b:false
      ~init obs
  in
  (of_em ~n ~m fitted, stats)

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
