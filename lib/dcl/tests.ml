type verdict = Accept | Reject

type outcome = {
  verdict : verdict;
  d_star : int;
  two_d_star : int;
  f_at_two_d_star : float;
  threshold : float;
}

let default_tolerance = 0.005

(* Shared scaffolding: find d_star (smallest symbol with F >= 1/2,
   1-based), evaluate F at 2 d_star and compare against [threshold]. *)
let run_test vqd ~threshold =
  let d_star = Vqd.quantile_symbol vqd 0.5 + 1 in
  let two_d_star = 2 * d_star in
  let f = Vqd.cdf_at vqd (two_d_star - 1) in
  {
    verdict = (if Stats.Float_cmp.geq f threshold then Accept else Reject);
    d_star;
    two_d_star;
    f_at_two_d_star = f;
    threshold;
  }

let sdcl ?(tolerance = default_tolerance) vqd = run_test vqd ~threshold:(1. -. tolerance)

let wdcl ?(tolerance = default_tolerance) ~beta ~eps vqd =
  if beta < 0. || beta >= 0.5 then invalid_arg "Tests.wdcl: beta must be in [0, 1/2)";
  if eps < 0. || eps > 1. then invalid_arg "Tests.wdcl: eps must be in [0, 1]";
  run_test vqd ~threshold:(((1. -. beta) *. (1. -. eps)) -. tolerance)

let pp_outcome ppf o =
  Format.fprintf ppf "%s (d*=%d, F(2d*=%d)=%.4f, threshold=%.4f)"
    (match o.verdict with Accept -> "accept" | Reject -> "reject")
    o.d_star o.two_d_star o.f_at_two_d_star o.threshold
