(* Property tests for the off-by-one-prone boundaries of the inference
   pipeline: the strict [F(j) > beta] cutoff of the WDCL bound, the
   1-based [d*] of the hypothesis tests against the 0-based [cdf_at]
   indexing, and the loss-pair histogram's bin-edge classification. *)

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

(* --- Loss-pair histogram: bin edges -------------------------------------- *)

(* [Probe.Losspair.estimate_max_queuing_delay] bins its samples in 40
   bins of width [w = (max + 1e-9) / 40].  [index_of x] reads the bin of
   a sample [x <= top] back from the estimate on [x; x; top]: [x]'s bin
   holds the most samples, so the estimate is its upper edge.  At
   [top = 0.5] the division [edge k / w] rounds below [k] for
   k = 11, 15, 22 and 30. *)
let hist_m = 40
let top = 0.5
let hist_w = (top +. 1e-9) /. float_of_int hist_m
let edge k = float_of_int k *. hist_w

let index_of x =
  match Probe.Losspair.estimate_max_queuing_delay [| x; x; top |] with
  | Some e -> int_of_float (Float.round (e /. hist_w)) - 1
  | None -> Alcotest.fail "no estimate on a non-empty sample"

let test_histogram_edges () =
  Alcotest.(check int) "x = 0" 0 (index_of 0.);
  Alcotest.(check int) "x = max" (hist_m - 1) (index_of top);
  Alcotest.(check int) "just below an edge" 10 (index_of (Float.pred (edge 11)));
  Alcotest.(check int) "on an edge whose division rounds down" 11 (index_of (edge 11));
  (* The last bin's upper edge is max + 1e-9. *)
  Alcotest.(check (option (float 1e-12))) "estimate of the top bin" (Some (top +. 1e-9))
    (Probe.Losspair.estimate_max_queuing_delay [| top |])

let prop_histogram_index_in_range =
  QCheck.Test.make ~name:"index_of stays in [0, m)" ~count:500
    QCheck.(float_range 0. top)
    (fun x ->
      let j = index_of x in
      0 <= j && j < hist_m)

let prop_histogram_index_monotone =
  QCheck.Test.make ~name:"index_of is monotone" ~count:500
    QCheck.(pair (float_range 0. top) (float_range 0. top))
    (fun (x, y) ->
      let x, y = if x <= y then (x, y) else (y, x) in
      index_of x <= index_of y)

let prop_histogram_interior_edges =
  (* Bins are half-open on the shared boundary grid: an interior edge
     belongs to exactly the bin whose lower edge it is, even where the
     raw division [edge / w] rounds below it. *)
  QCheck.Test.make ~name:"interior edges land in their own bin" ~count:200
    QCheck.(int_range 1 (hist_m - 1))
    (fun k -> index_of (edge k) = k)

let prop_histogram_half_open_contract =
  (* Every sample satisfies edge j <= x < edge (j+1) for its bin j. *)
  QCheck.Test.make ~name:"index_of satisfies the half-open bin contract" ~count:500
    QCheck.(float_range 0. top)
    (fun x ->
      let j = index_of x in
      edge j <= x && x < edge (j + 1))

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_wdcl_bound_is_least_symbol_above_beta;
      prop_run_test_matches_reference;
      prop_d_star_is_least_median_symbol;
      prop_histogram_index_in_range;
      prop_histogram_index_monotone;
      prop_histogram_interior_edges;
      prop_histogram_half_open_contract;
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
        ] );
      ("properties", qcheck_cases);
    ]
