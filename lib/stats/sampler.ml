let uniform rng ~lo ~hi =
  if lo > hi then invalid_arg "Sampler.uniform: lo > hi";
  lo +. ((hi -. lo) *. Rng.float rng)

let exponential rng ~rate =
  if rate <= 0. then invalid_arg "Sampler.exponential: rate <= 0";
  (* 1 - u avoids log 0 since Rng.float is in [0,1). *)
  -.log (1. -. Rng.float rng) /. rate

let pareto rng ~shape ~scale =
  if shape <= 0. || scale <= 0. then invalid_arg "Sampler.pareto: non-positive parameter";
  scale /. ((1. -. Rng.float rng) ** (1. /. shape))

let bernoulli rng ~p = Rng.float rng < p

let categorical rng w =
  let total = Array.fold_left ( +. ) 0. w in
  if total <= 0. then invalid_arg "Sampler.categorical: total weight <= 0";
  let x = Rng.float rng *. total in
  let n = Array.length w in
  let rec walk i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if x < acc then i else walk (i + 1) acc
  in
  walk 0 0.

let dirichlet_like rng n =
  if n <= 0 then invalid_arg "Sampler.dirichlet_like: n <= 0";
  let v = Array.init n (fun _ -> 0.05 +. Rng.float rng) in
  let total = Array.fold_left ( +. ) 0. v in
  Array.map (fun x -> x /. total) v
