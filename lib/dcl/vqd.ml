type t = { scheme : Discretize.t; pmf : float array; cdf : float array }

let of_pmf scheme pmf =
  let m = scheme.Discretize.m in
  if Array.length pmf <> m then invalid_arg "Vqd.of_pmf: length mismatch";
  let s = Array.fold_left ( +. ) 0. pmf in
  if s <= 0. then invalid_arg "Vqd.of_pmf: non-positive sum";
  let pmf = Array.map (fun x -> x /. s) pmf in
  (* The running sum, its last entry set to exactly 1 when within 1e-9
     of it, so a quantile walk never falls off the end on rounding. *)
  let cdf = Array.make m 0. in
  let acc = ref 0. in
  for j = 0 to m - 1 do
    acc := !acc +. pmf.(j);
    cdf.(j) <- !acc
  done;
  if m > 0 && Stats.Float_cmp.approx_eq ~eps:1e-9 cdf.(m - 1) 1. then cdf.(m - 1) <- 1.;
  { scheme; pmf; cdf }

let of_queuing_samples scheme samples =
  if Array.length samples = 0 then invalid_arg "Vqd.of_queuing_samples: empty sample";
  let counts = Array.make scheme.Discretize.m 0. in
  Array.iter
    (fun q ->
      let j = Discretize.symbol_of_queuing scheme q in
      counts.(j) <- counts.(j) +. 1.)
    samples;
  of_pmf scheme counts

let of_trace_truth scheme trace =
  let samples = Probe.Trace.truth_virtual_delays trace in
  if Array.length samples = 0 then invalid_arg "Vqd.of_trace_truth: trace has no loss";
  of_queuing_samples scheme samples

let cdf_at t j =
  if j < 0 then 0. else if j >= Array.length t.cdf then 1. else t.cdf.(j)

let quantile_symbol t q =
  let m = Array.length t.cdf in
  let rec find j = if j >= m - 1 || t.cdf.(j) >= q then j else find (j + 1) in
  find 0

let tv_distance a b =
  if Array.length a.pmf <> Array.length b.pmf then
    invalid_arg "Vqd.tv_distance: length mismatch";
  let acc = ref 0. in
  Array.iteri (fun i p -> acc := !acc +. abs_float (p -. b.pmf.(i))) a.pmf;
  0.5 *. !acc

let pp ppf t =
  Format.fprintf ppf "@[<h>";
  Array.iteri
    (fun j p -> if p > 5e-4 then Format.fprintf ppf "%d:%.3f " (j + 1) p)
    t.pmf;
  Format.fprintf ppf "@]"
