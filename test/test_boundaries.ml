(* Property tests for the off-by-one-prone boundaries of the inference
   pipeline: the strict [F(j) > beta] cutoff of the WDCL bound, the
   1-based [d*] of the hypothesis tests against the 0-based [cdf_at]
   indexing, and histogram bin-edge classification. *)

let scheme m = Dcl.Discretize.of_range ~m ~lo:0.1 ~hi:(0.1 +. (0.1 *. float_of_int m))

let vqd_of_pmf m pmf = Dcl.Vqd.of_pmf (scheme m) pmf

(* Positive pmfs of a given size; weights bounded away from zero so the
   normalized cdf is strictly increasing. *)
let pmf_arb m =
  QCheck.make
    ~print:(fun a -> String.concat ";" (List.map string_of_float (Array.to_list a)))
    QCheck.Gen.(array_size (return m) (float_range 0.01 1.))

(* --- Bound.wdcl_bound: strict F(j) > beta cutoff ----------------------- *)

(* The bound's symbol is the smallest j with F(j) > beta (capped at
   m - 1): equality F(j) = beta must NOT stop the scan, because Theorem
   2 only guarantees that at most a beta loss-fraction lies below the
   dominant link's contribution. *)

let test_wdcl_bound_exact_equality () =
  (* cdf.(0) = 0.25 exactly (binary-exact weights summing to 1). *)
  let v = vqd_of_pmf 4 [| 0.25; 0.25; 0.25; 0.25 |] in
  let q = Dcl.Discretize.queuing_value (scheme 4) in
  Alcotest.(check (float 1e-12))
    "F(0) = beta exactly does not stop the scan" (q 1)
    (Dcl.Bound.wdcl_bound ~beta:0.25 v);
  Alcotest.(check (float 1e-12))
    "F(0) just above beta stops at symbol 0" (q 0)
    (Dcl.Bound.wdcl_bound ~beta:0.2499 v);
  (* beta = 0: any positive first bin exceeds it. *)
  Alcotest.(check (float 1e-12))
    "beta = 0 stops at the first positive bin" (q 0)
    (Dcl.Bound.wdcl_bound ~beta:0. v)

let test_wdcl_bound_all_mass_low () =
  (* Everything below beta until the last bin: the scan must cap at
     m - 1, not run past the array. *)
  let v = vqd_of_pmf 5 [| 0.01; 0.01; 0.01; 0.01; 0.96 |] in
  Alcotest.(check (float 1e-12))
    "caps at the last symbol"
    (Dcl.Discretize.queuing_value (scheme 5) 4)
    (Dcl.Bound.wdcl_bound ~beta:0.45 v)

let prop_wdcl_bound_is_least_symbol_above_beta =
  QCheck.Test.make ~name:"wdcl_bound returns the least symbol with F > beta"
    ~count:300
    QCheck.(pair (pmf_arb 7) (float_range 0. 0.49))
    (fun (pmf, beta) ->
      let v = vqd_of_pmf 7 pmf in
      let bound = Dcl.Bound.wdcl_bound ~beta v in
      (* Recover the chosen symbol from the bound value. *)
      let j =
        let rec find j =
          if j = 6 || abs_float (Dcl.Discretize.queuing_value (scheme 7) j -. bound) < 1e-9
          then j
          else find (j + 1)
        in
        find 0
      in
      (* Every skipped symbol had F <= beta, and the chosen one exceeds
         beta unless the scan capped at the last symbol. *)
      let skipped_ok =
        let rec check k = k >= j || (Dcl.Vqd.cdf_at v k <= beta && check (k + 1)) in
        check 0
      in
      skipped_ok && (j = 6 || Dcl.Vqd.cdf_at v j > beta))

(* --- Tests.run_test: 1-based d* against 0-based cdf_at ----------------- *)

(* Independent reference implementation of Theorems 1-2 in the paper's
   own 1-based indexing: F(d) for a 1-based symbol d is cdf.(d - 1);
   d* is the smallest 1-based d with F(d) >= 1/2; the tested symbol is
   2 d_star; F past the last symbol is 1. *)
let reference vqd =
  let cdf = vqd.Dcl.Vqd.cdf in
  let m = Array.length cdf in
  let f d = if d <= 0 then 0. else if d > m then 1. else cdf.(d - 1) in
  let rec find d = if d >= m || f d >= 0.5 then d else find (d + 1) in
  let d_star = find 1 in
  let tested = 2 * d_star in
  (d_star, tested, f tested)

let prop_run_test_matches_reference =
  QCheck.Test.make ~name:"sdcl outcome indices match the 1-based reference"
    ~count:300
    (pmf_arb 9)
    (fun pmf ->
      let v = vqd_of_pmf 9 pmf in
      let o = Dcl.Tests.sdcl v in
      let d_star, tested, f = reference v in
      o.Dcl.Tests.d_star = d_star
      && o.Dcl.Tests.two_d_star = tested
      && abs_float (o.Dcl.Tests.f_at_two_d_star -. f) < 1e-12)

let prop_d_star_is_least_median_symbol =
  QCheck.Test.make ~name:"d* is the least 1-based symbol with F >= 1/2" ~count:300
    (pmf_arb 6) (fun pmf ->
      let v = vqd_of_pmf 6 pmf in
      let o = Dcl.Tests.sdcl v in
      let d = o.Dcl.Tests.d_star in
      1 <= d && d <= 6
      && Dcl.Vqd.cdf_at v (d - 2) < 0.5
      && (d = 6 || Dcl.Vqd.cdf_at v (d - 1) >= 0.5))

let test_run_test_past_end () =
  (* All mass in the last bin: d* = m, tested symbol 2m > m, and F
     there must read as 1 (not an out-of-range access). *)
  let v = vqd_of_pmf 3 [| 1e-9; 1e-9; 1. |] in
  let o = Dcl.Tests.sdcl v in
  Alcotest.(check int) "d* = m" 3 o.Dcl.Tests.d_star;
  Alcotest.(check int) "tested symbol past the end" 6 o.Dcl.Tests.two_d_star;
  Alcotest.(check (float 1e-12)) "F past the end is 1" 1. o.Dcl.Tests.f_at_two_d_star;
  Alcotest.(check bool) "accepts" true (o.Dcl.Tests.verdict = Dcl.Tests.Accept)

let test_run_test_first_bin () =
  (* All mass in the first bin: d* = 1 (1-based!), tested symbol 2. *)
  let v = vqd_of_pmf 4 [| 1.; 1e-9; 1e-9; 1e-9 |] in
  let o = Dcl.Tests.sdcl v in
  Alcotest.(check int) "d* = 1" 1 o.Dcl.Tests.d_star;
  Alcotest.(check int) "tested symbol = 2" 2 o.Dcl.Tests.two_d_star

(* --- Stats.Histogram: index_of / value_of on bin edges ----------------- *)

let hist_m = 8
let hist () = Stats.Histogram.create ~m:hist_m ~lo:0.2 ~hi:1.

let test_histogram_edges () =
  let h = hist () in
  Alcotest.(check int) "x = lo" 0 (Stats.Histogram.index_of h 0.2);
  Alcotest.(check int) "x < lo clamps" 0 (Stats.Histogram.index_of h (-5.));
  Alcotest.(check int) "x = hi" (hist_m - 1) (Stats.Histogram.index_of h 1.);
  Alcotest.(check int) "x > hi clamps" (hist_m - 1) (Stats.Histogram.index_of h 7.);
  (* value_of is the right edge of the bin; the last right edge is hi. *)
  Alcotest.(check (float 1e-12)) "last value is hi" 1.
    (Stats.Histogram.value_of h (hist_m - 1))

let prop_histogram_index_in_range =
  QCheck.Test.make ~name:"index_of stays in [0, m)" ~count:500
    QCheck.(float_range (-2.) 3.)
    (fun x ->
      let j = Stats.Histogram.index_of (hist ()) x in
      0 <= j && j < hist_m)

let prop_histogram_index_monotone =
  QCheck.Test.make ~name:"index_of is monotone" ~count:500
    QCheck.(pair (float_range 0. 1.2) (float_range 0. 1.2))
    (fun (x, y) ->
      let h = hist () in
      let x, y = if x <= y then (x, y) else (y, x) in
      Stats.Histogram.index_of h x <= Stats.Histogram.index_of h y)

let prop_histogram_interior_edges =
  (* Bins are half-open on the shared boundary grid: an interior edge
     belongs to exactly the bin whose lower edge it is.  Before the
     grid-reconciled index_of, the raw division could round the edge
     into either adjacent bin, so this property only held as
     "j = k - 1 || j = k". *)
  QCheck.Test.make ~name:"interior edges land in their own bin" ~count:200
    QCheck.(int_range 1 (hist_m - 1))
    (fun k ->
      let h = hist () in
      let edge = Stats.Histogram.lo h +. (float_of_int k *. Stats.Histogram.width h) in
      Stats.Histogram.index_of h edge = k)

let prop_histogram_value_roundtrip =
  (* The right edge of bin j is the lower edge of bin j + 1, so under
     half-open ownership it indexes to exactly j + 1 — except the last
     right edge, which is hi and stays in the last bin. *)
  QCheck.Test.make ~name:"index_of (value_of j) is exactly j+1 (last: j)" ~count:200
    QCheck.(int_range 0 (hist_m - 1))
    (fun j ->
      let h = hist () in
      let idx = Stats.Histogram.index_of h (Stats.Histogram.value_of h j) in
      idx = min (j + 1) (hist_m - 1))

let prop_histogram_half_open_contract =
  (* Direct statement of the contract: every in-range sample satisfies
     edges.(j) <= x < edges.(j+1) for its returned bin (the last bin
     also owns hi). *)
  QCheck.Test.make ~name:"index_of satisfies the half-open bin contract" ~count:500
    QCheck.(float_range 0.2 1.)
    (fun x ->
      let h = hist () in
      let j = Stats.Histogram.index_of h x in
      let edge k = Stats.Histogram.lo h +. (float_of_int k *. Stats.Histogram.width h) in
      edge j <= x && (x < edge (j + 1) || j = hist_m - 1))

let test_histogram_clamped_counter () =
  let h = hist () in
  Stats.Histogram.add h 0.5;
  Stats.Histogram.add h (-1.);
  Stats.Histogram.add h 2.;
  (* The range endpoints are in range, not clamps. *)
  Stats.Histogram.add h 0.2;
  Stats.Histogram.add h 1.;
  Alcotest.(check int) "clamped counts only out-of-range samples" 2
    (Stats.Histogram.clamped h);
  Alcotest.(check int) "clamped samples still land in edge bins" 5
    (Stats.Histogram.total h)

let prop_histogram_values_increasing =
  QCheck.Test.make ~name:"value_of is strictly increasing" ~count:100
    QCheck.(int_range 0 (hist_m - 2))
    (fun j ->
      let h = hist () in
      Stats.Histogram.value_of h j < Stats.Histogram.value_of h (j + 1))

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_wdcl_bound_is_least_symbol_above_beta;
      prop_run_test_matches_reference;
      prop_d_star_is_least_median_symbol;
      prop_histogram_index_in_range;
      prop_histogram_index_monotone;
      prop_histogram_interior_edges;
      prop_histogram_value_roundtrip;
      prop_histogram_half_open_contract;
      prop_histogram_values_increasing;
    ]

let () =
  Alcotest.run "boundaries"
    [
      ( "wdcl bound cutoff",
        [
          Alcotest.test_case "exact equality" `Quick test_wdcl_bound_exact_equality;
          Alcotest.test_case "caps at last symbol" `Quick test_wdcl_bound_all_mass_low;
        ] );
      ( "test indexing",
        [
          Alcotest.test_case "past the end" `Quick test_run_test_past_end;
          Alcotest.test_case "first bin" `Quick test_run_test_first_bin;
        ] );
      ( "histogram edges",
        [
          Alcotest.test_case "edge cases" `Quick test_histogram_edges;
          Alcotest.test_case "clamped counter" `Quick test_histogram_clamped_counter;
        ] );
      ("properties", qcheck_cases);
    ]
