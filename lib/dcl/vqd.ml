type t = { scheme : Discretize.t; pmf : float array; cdf : float array }

let of_pmf scheme pmf =
  if Array.length pmf <> scheme.Discretize.m then invalid_arg "Vqd.of_pmf: length mismatch";
  let pmf = Stats.Histogram.normalize pmf in
  { scheme; pmf; cdf = Stats.Histogram.cdf_of_pmf pmf }

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

let tv_distance a b = Stats.Histogram.total_variation a.pmf b.pmf

let pp ppf t =
  Format.fprintf ppf "@[<h>";
  Array.iteri
    (fun j p -> if p > 5e-4 then Format.fprintf ppf "%d:%.3f " (j + 1) p)
    t.pmf;
  Format.fprintf ppf "@]"
