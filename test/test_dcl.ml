(* Tests for the core contribution: discretization, virtual queuing
   delay distributions, the SDCL/WDCL hypothesis tests (Theorems 1-2 on
   synthetic virtual-probe populations), the Q_max bounds, the
   ground-truth classifier, and the end-end pipeline. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* --- Discretize --------------------------------------------------------- *)

let scheme5 = Dcl.Discretize.of_range ~m:5 ~lo:0.1 ~hi:0.6

let test_discretize_ranges () =
  check_float "width" 0.1 scheme5.Dcl.Discretize.width;
  Alcotest.(check int) "at lo" 0 (Dcl.Discretize.symbol_of_delay scheme5 0.1);
  Alcotest.(check int) "inside bin 0" 0 (Dcl.Discretize.symbol_of_delay scheme5 0.15);
  Alcotest.(check int) "upper edge belongs to bin" 0
    (Dcl.Discretize.symbol_of_delay scheme5 0.2);
  Alcotest.(check int) "just above an edge" 1
    (Dcl.Discretize.symbol_of_delay scheme5 0.2000001);
  Alcotest.(check int) "clamp below" 0 (Dcl.Discretize.symbol_of_delay scheme5 0.0);
  Alcotest.(check int) "clamp above" 4 (Dcl.Discretize.symbol_of_delay scheme5 1.0);
  Alcotest.(check int) "top bin" 4 (Dcl.Discretize.symbol_of_delay scheme5 0.55)

let test_discretize_queuing () =
  Alcotest.(check int) "queuing = delay - lo" 2
    (Dcl.Discretize.symbol_of_queuing scheme5 0.25);
  check_float "queuing value = upper edge" 0.3 (Dcl.Discretize.queuing_value scheme5 2)

(* A trace of the given observations, one probe every 20 ms. *)
let trace_of_obs obs =
  Probe.Trace.create
    ~records:
      (Array.mapi
         (fun i obs -> { Probe.Trace.send_time = 0.02 *. float_of_int i; obs; truth = None })
         obs)
    ~interval:0.02 ~base_delay:0.05 ~hop_count:1

let test_discretize_symbolize () =
  let obs = [| Probe.Trace.Delay 0.15; Probe.Trace.Lost; Probe.Trace.Delay 0.45 |] in
  Alcotest.(check (array (option int))) "symbolized"
    [| Some 0; None; Some 3 |]
    (Dcl.Discretize.symbolize scheme5 (trace_of_obs obs))

let test_discretize_invalid () =
  Alcotest.check_raises "m <= 0" (Invalid_argument "Discretize.of_range: m <= 0")
    (fun () -> ignore (Dcl.Discretize.of_range ~m:0 ~lo:0. ~hi:1.));
  Alcotest.check_raises "hi <= lo" (Invalid_argument "Discretize.of_range: hi <= lo")
    (fun () -> ignore (Dcl.Discretize.of_range ~m:5 ~lo:1. ~hi:1.))

let mk_trace ?(interval = 0.02) records =
  Probe.Trace.create ~records:(Array.of_list records) ~interval ~base_delay:0.1
    ~hop_count:2

let rec_delay t d = Probe.Trace.{ send_time = t; obs = Delay d; truth = None }

let rec_loss t vqd hop =
  Probe.Trace.
    {
      send_time = t;
      obs = Lost;
      truth =
        Some { virtual_queuing_delay = vqd; hop_queuing = [| 0.; vqd |]; loss_hop = Some hop };
    }

let test_discretize_of_trace () =
  let trace = mk_trace [ rec_delay 0. 0.12; rec_delay 0.02 0.3; rec_loss 0.04 0.1 1 ] in
  let s = Dcl.Discretize.of_trace ~m:5 ~prop_delay:Dcl.Discretize.From_trace trace in
  check_float "lo = min observed" 0.12 s.Dcl.Discretize.lo;
  check_float "hi = max observed" 0.3 s.Dcl.Discretize.hi;
  let s' = Dcl.Discretize.of_trace ~m:5 ~prop_delay:(Dcl.Discretize.Known 0.1) trace in
  check_float "known propagation" 0.1 s'.Dcl.Discretize.lo

(* --- Vqd ----------------------------------------------------------------- *)

let test_vqd_of_pmf () =
  let v = Dcl.Vqd.of_pmf scheme5 [| 1.; 1.; 2.; 0.; 0. |] in
  check_float "normalized" 0.25 v.Dcl.Vqd.pmf.(0);
  check_float "cdf" 0.5 (Dcl.Vqd.cdf_at v 1);
  check_float "cdf below range" 0. (Dcl.Vqd.cdf_at v (-1));
  check_float "cdf above range" 1. (Dcl.Vqd.cdf_at v 99)

let test_vqd_of_samples () =
  let v = Dcl.Vqd.of_queuing_samples scheme5 [| 0.05; 0.15; 0.18; 0.45 |] in
  check_float "bin 0" 0.25 v.Dcl.Vqd.pmf.(0);
  check_float "bin 1" 0.5 v.Dcl.Vqd.pmf.(1);
  check_float "bin 4" 0.25 v.Dcl.Vqd.pmf.(4)

let test_vqd_quantile () =
  let v = Dcl.Vqd.of_pmf scheme5 [| 0.2; 0.2; 0.3; 0.2; 0.1 |] in
  Alcotest.(check int) "median symbol" 2 (Dcl.Vqd.quantile_symbol v 0.5);
  Alcotest.(check int) "q0 symbol" 0 (Dcl.Vqd.quantile_symbol v 0.1);
  Alcotest.(check int) "q1 symbol" 4 (Dcl.Vqd.quantile_symbol v 1.0)

let test_vqd_mean () =
  let v = Dcl.Vqd.of_pmf scheme5 [| 0.; 0.; 1.; 0.; 0. |] in
  check_float "mean at bin value" 0.3 (Dcl.Vqd.mean_queuing v)

let test_vqd_of_trace_truth () =
  let trace =
    mk_trace [ rec_delay 0. 0.12; rec_loss 0.02 0.25 1; rec_loss 0.04 0.26 1; rec_delay 0.06 0.6 ]
  in
  let v = Dcl.Vqd.of_trace_truth scheme5 trace in
  check_float "both losses in bin 2" 1. v.Dcl.Vqd.pmf.(2)

let test_vqd_requires_losses () =
  let trace = mk_trace [ rec_delay 0. 0.2 ] in
  Alcotest.check_raises "no loss" (Invalid_argument "Vqd.of_trace_truth: trace has no loss")
    (fun () -> ignore (Dcl.Vqd.of_trace_truth scheme5 trace))

(* --- Hypothesis tests (Theorems 1-2 on synthetic populations) ---------- *)

(* Build the discretized F directly from a synthetic population of
   virtual queuing delays of lost probes. *)
let vqd_of_y_population scheme ys = Dcl.Vqd.of_queuing_samples scheme (Array.of_list ys)

let test_sdcl_accepts_strongly_dominant () =
  (* One link takes all losses with Q_k = 0.25 over a 0-0.5 range:
     every Y is in [Q_k, 2 Q_k], as Theorem 1 requires. *)
  let scheme = Dcl.Discretize.of_range ~m:5 ~lo:0. ~hi:0.5 in
  let ys = List.init 100 (fun i -> 0.25 +. (0.002 *. float_of_int i)) in
  let v = vqd_of_y_population scheme ys in
  let o = Dcl.Tests.sdcl v in
  Alcotest.(check bool) "accepts" true (o.Dcl.Tests.verdict = Dcl.Tests.Accept);
  Alcotest.(check bool) "F at 2 d_star = 1" true (o.Dcl.Tests.f_at_two_d_star >= 0.999)

let test_sdcl_rejects_two_lossy_links () =
  (* Two independent lossy links with Q1 = 0.1 and Q2 = 0.4: the small
     cluster's Y  ~ 0.1, the big one's ~ 0.4 > 2 * d_star value. *)
  let scheme = Dcl.Discretize.of_range ~m:5 ~lo:0. ~hi:0.5 in
  let ys =
    List.init 60 (fun i -> 0.1 +. (0.0003 *. float_of_int i))
    @ List.init 40 (fun i -> 0.42 +. (0.001 *. float_of_int i))
  in
  let v = vqd_of_y_population scheme ys in
  let o = Dcl.Tests.sdcl v in
  Alcotest.(check bool) "rejects" true (o.Dcl.Tests.verdict = Dcl.Tests.Reject);
  check_close 1e-9 "F at 2 d_star = share of small cluster" 0.6
    o.Dcl.Tests.f_at_two_d_star

let test_wdcl_accepts_weakly_dominant () =
  (* 95% of losses at the small-Q link: with beta = 0.06 the weak test
     accepts while the strong test rejects. *)
  let scheme = Dcl.Discretize.of_range ~m:5 ~lo:0. ~hi:0.5 in
  let ys =
    List.init 95 (fun i -> 0.1 +. (0.0003 *. float_of_int i))
    @ List.init 5 (fun i -> 0.42 +. (0.001 *. float_of_int i))
  in
  let v = vqd_of_y_population scheme ys in
  Alcotest.(check bool) "SDCL rejects" true
    ((Dcl.Tests.sdcl v).Dcl.Tests.verdict = Dcl.Tests.Reject);
  Alcotest.(check bool) "WDCL(0.06, 0) accepts" true
    ((Dcl.Tests.wdcl ~beta:0.06 ~eps:0. v).Dcl.Tests.verdict = Dcl.Tests.Accept);
  (* With a beta below the off-link share the test must reject
     (the paper's beta = 0.02 worked example). *)
  Alcotest.(check bool) "WDCL(0.02, 0) rejects" true
    ((Dcl.Tests.wdcl ~beta:0.02 ~eps:0. v).Dcl.Tests.verdict = Dcl.Tests.Reject)

let test_wdcl_threshold_formula () =
  let scheme = Dcl.Discretize.of_range ~m:5 ~lo:0. ~hi:0.5 in
  let v = vqd_of_y_population scheme (List.init 10 (fun _ -> 0.05)) in
  let o = Dcl.Tests.wdcl ~tolerance:0. ~beta:0.1 ~eps:0.2 v in
  check_float "threshold = (1-beta)(1-eps)" 0.72 o.Dcl.Tests.threshold

let test_wdcl_invalid_params () =
  let scheme = Dcl.Discretize.of_range ~m:5 ~lo:0. ~hi:0.5 in
  let v = vqd_of_y_population scheme [ 0.1 ] in
  Alcotest.check_raises "beta >= 1/2" (Invalid_argument "Tests.wdcl: beta must be in [0, 1/2)")
    (fun () -> ignore (Dcl.Tests.wdcl ~beta:0.5 ~eps:0. v));
  Alcotest.check_raises "eps > 1" (Invalid_argument "Tests.wdcl: eps must be in [0, 1]")
    (fun () -> ignore (Dcl.Tests.wdcl ~beta:0.1 ~eps:1.5 v))

let test_d_star_indexing_matches_paper () =
  (* Mass at symbol 2 (1-based) => d_star = 2 and 2 d_star = 4, as in
     the paper's worked example. *)
  let scheme = Dcl.Discretize.of_range ~m:5 ~lo:0. ~hi:0.5 in
  let v = Dcl.Vqd.of_pmf scheme [| 0.0; 0.97; 0.0; 0.0; 0.03 |] in
  let o = Dcl.Tests.sdcl v in
  Alcotest.(check int) "d_star" 2 o.Dcl.Tests.d_star;
  Alcotest.(check int) "2 d_star" 4 o.Dcl.Tests.two_d_star;
  check_float "F at symbol 4" 0.97 o.Dcl.Tests.f_at_two_d_star

(* --- Bounds -------------------------------------------------------------- *)

let test_sdcl_bound () =
  let scheme = Dcl.Discretize.of_range ~m:5 ~lo:0. ~hi:0.5 in
  (* All mass in bin 2 => median symbol 2 (0-based), bound = 0.3. *)
  let v = Dcl.Vqd.of_pmf scheme [| 0.; 0.; 1.; 0.; 0. |] in
  check_float "median-quantile bound" 0.3 (Dcl.Bound.sdcl_bound v);
  (* The bound must upper-bound the true Q_k for a strongly dominant
     population: Y >= Q_k always, so the median delay value >= Q_k. *)
  let q_k = 0.25 in
  let ys = List.init 100 (fun i -> q_k +. (0.002 *. float_of_int i)) in
  let v2 = vqd_of_y_population scheme ys in
  Alcotest.(check bool) "bound dominates Q_k" true (Dcl.Bound.sdcl_bound v2 >= q_k)

let test_wdcl_bound () =
  let scheme = Dcl.Discretize.of_range ~m:5 ~lo:0. ~hi:0.5 in
  (* 5% of mass below the dominant cluster: with beta = 0.06 the bound
     skips the small low cluster. *)
  let v = Dcl.Vqd.of_pmf scheme [| 0.05; 0.; 0.95; 0.; 0. |] in
  check_float "skips sub-beta mass" 0.3 (Dcl.Bound.wdcl_bound ~beta:0.06 v);
  (* With beta = 0.02 the low cluster (5% > beta) stops the scan. *)
  check_float "stops at first above-beta mass" 0.1 (Dcl.Bound.wdcl_bound ~beta:0.02 v)

let test_component_bound () =
  let scheme = Dcl.Discretize.of_range ~m:10 ~lo:0. ~hi:1. in
  (* Components: bins 1-2 (mass 0.15) and bins 6-8 (mass 0.85). *)
  let pmf = [| 0.; 0.1; 0.05; 0.; 0.; 0.; 0.3; 0.4; 0.15; 0. |] in
  let v = Dcl.Vqd.of_pmf scheme pmf in
  let comps = Dcl.Bound.components v in
  Alcotest.(check int) "two components" 2 (List.length comps);
  (* Largest-mass component starts at bin 6: bound = value of bin 6. *)
  check_close 1e-9 "bound at component start" 0.7 (Dcl.Bound.component_bound v)

let test_component_bound_single_cluster () =
  let scheme = Dcl.Discretize.of_range ~m:10 ~lo:0. ~hi:1. in
  let pmf = [| 0.; 0.; 0.; 0.5; 0.5; 0.; 0.; 0.; 0.; 0. |] in
  let v = Dcl.Vqd.of_pmf scheme pmf in
  check_close 1e-9 "single component" 0.4 (Dcl.Bound.component_bound v)

(* --- Truth --------------------------------------------------------------- *)

let test_truth_classify () =
  let strong =
    mk_trace (List.init 20 (fun i -> rec_loss (0.02 *. float_of_int i) 0.25 1))
  in
  Alcotest.(check bool) "strong" true (Dcl.Truth.classify strong ~hop_count:2 = Dcl.Truth.Strong);
  let weak =
    mk_trace
      (List.init 19 (fun i -> rec_loss (0.02 *. float_of_int i) 0.25 1)
      @ [ rec_loss 0.40 0.3 0 ])
  in
  (match Dcl.Truth.classify weak ~hop_count:2 with
  | Dcl.Truth.Weak { hop = 1; _ } -> ()
  | _ -> Alcotest.fail "expected weak at hop 1");
  let none =
    mk_trace
      (List.init 10 (fun i -> rec_loss (0.02 *. float_of_int i) 0.25 1)
      @ List.init 10 (fun i -> rec_loss (0.2 +. (0.02 *. float_of_int i)) 0.3 0))
  in
  Alcotest.(check bool) "no dominant" true
    (Dcl.Truth.classify none ~hop_count:2 = Dcl.Truth.No_dominant);
  let lossless = mk_trace [ rec_delay 0. 0.2 ] in
  Alcotest.(check bool) "no losses => no dominant" true
    (Dcl.Truth.classify lossless ~hop_count:2 = Dcl.Truth.No_dominant)

let test_truth_shares_and_delay_condition () =
  let trace =
    mk_trace [ rec_loss 0. 0.25 1; rec_loss 0.02 0.25 1; rec_loss 0.04 0.3 0 ]
  in
  let shares = Dcl.Truth.loss_shares trace ~hop_count:2 in
  check_close 1e-9 "share hop 1" (2. /. 3.) shares.(1);
  (match Dcl.Truth.dominant_hop trace ~hop_count:2 with
  | Some (1, _) -> ()
  | _ -> Alcotest.fail "dominant hop");
  (* rec_loss puts all queuing on hop 1, so the delay condition holds
     trivially there. *)
  check_float "delay condition" 1. (Dcl.Truth.delay_condition_fraction trace ~hop:1)

(* --- Identify (end-end pipeline on synthetic traces) -------------------- *)

(* Synthesize a trace from an MMHD reference model: delays are bin
   midpoints of the symbols, losses carry truth with Y = the hidden
   symbol's value. *)
let synthetic_trace ~len seed =
  let reference =
    Mmhd.make ~n:1 ~m:5
      ~pi:[| 0.55; 0.25; 0.15; 0.04; 0.01 |]
      ~a:
        [|
          0.80; 0.15; 0.04; 0.008; 0.002;
          0.30; 0.50; 0.15; 0.04; 0.01;
          0.10; 0.25; 0.50; 0.12; 0.03;
          0.05; 0.10; 0.30; 0.45; 0.10;
          0.02; 0.08; 0.20; 0.30; 0.40;
        |]
      ~c:[| 0.; 0.005; 0.02; 0.3; 0.4 |]
  in
  let rng = Stats.Rng.create seed in
  let obs, path = Mmhd.simulate rng reference ~len in
  let base = 0.05 in
  let width = 0.02 in
  (* Jitter delays within their generator bin so the From_trace
     discretization grid aligns with the generator's. *)
  let jrng = Stats.Rng.create (seed + 1) in
  let records =
    Array.mapi
      (fun t o ->
        let send_time = 0.02 *. float_of_int t in
        let y = path.(t) mod reference.Em.m in
        let delay =
          base +. (width *. (float_of_int y +. Stats.Sampler.uniform jrng ~lo:0.02 ~hi:0.98))
        in
        match o with
        | Some _ -> Probe.Trace.{ send_time; obs = Delay delay; truth = None }
        | None ->
            Probe.Trace.
              {
                send_time;
                obs = Lost;
                truth =
                  Some
                    {
                      virtual_queuing_delay = delay -. base;
                      hop_queuing = [| delay -. base |];
                      loss_hop = Some 0;
                    };
              })
      obs
  in
  Probe.Trace.create ~records ~interval:0.02 ~base_delay:base ~hop_count:1

let test_identifiable () =
  let good = synthetic_trace ~len:2000 3 in
  Alcotest.(check bool) "synthetic trace identifiable" true (Dcl.Identify.identifiable good);
  let lossless = mk_trace [ rec_delay 0. 0.2; rec_delay 0.02 0.3 ] in
  Alcotest.(check bool) "lossless not identifiable" false
    (Dcl.Identify.identifiable lossless);
  let flat = mk_trace [ rec_delay 0. 0.2; rec_loss 0.02 0.1 1 ] in
  Alcotest.(check bool) "no spread not identifiable" false (Dcl.Identify.identifiable flat)

let test_identify_runs_end_to_end () =
  let trace = synthetic_trace ~len:8000 5 in
  let rng = Stats.Rng.create 7 in
  let r = Dcl.Identify.run ~rng trace in
  Alcotest.(check int) "m symbols" 5 (Array.length r.Dcl.Identify.vqd.Dcl.Vqd.pmf);
  Alcotest.(check bool) "loss rate recorded" true (r.Dcl.Identify.loss_rate > 0.);
  Alcotest.(check bool) "em ran" true (r.Dcl.Identify.em_iterations > 0);
  (* The synthetic losses concentrate at high symbols: the model's
     posterior must agree with the generator's truth within a small TV
     distance. *)
  let scheme = r.Dcl.Identify.scheme in
  let truth = Dcl.Vqd.of_trace_truth scheme trace in
  Alcotest.(check bool) "model close to truth" true
    (Dcl.Vqd.tv_distance truth r.Dcl.Identify.vqd < 0.2)

let test_identify_models_agree_on_synthetic () =
  let trace = synthetic_trace ~len:8000 11 in
  let rng = Stats.Rng.create 13 in
  let conclusions =
    List.map
      (fun model ->
        let params = { Dcl.Identify.default_params with model } in
        (Dcl.Identify.run ~params ~rng trace).Dcl.Identify.conclusion)
      [ Dcl.Identify.Model_mmhd; Dcl.Identify.Model_markov; Dcl.Identify.Model_hmm ]
  in
  match conclusions with
  | [ a; b; c ] ->
      Alcotest.(check bool) "all three models agree" true (a = b && b = c)
  | _ -> Alcotest.fail "unexpected"

let test_identify_rejects_bad_trace () =
  let rng = Stats.Rng.create 1 in
  let lossless = mk_trace [ rec_delay 0. 0.2; rec_delay 0.02 0.3 ] in
  Alcotest.(check bool) "raises on unidentifiable trace" true
    (try
       ignore (Dcl.Identify.run ~rng lossless);
       false
     with Invalid_argument _ -> true)

let test_conclusion_strings () =
  Alcotest.(check string) "strong" "strongly dominant congested link"
    (Dcl.Identify.conclusion_to_string Dcl.Identify.Strongly_dominant);
  Alcotest.(check string) "none" "no dominant congested link"
    (Dcl.Identify.conclusion_to_string Dcl.Identify.No_dominant)

(* QCheck: for arbitrary VQDs, d_star doubles correctly and verdicts are
   monotone in beta (larger beta => easier acceptance). *)
let vqd_arb =
  let gen =
    QCheck.Gen.(
      list_size (return 5) (float_range 0.01 1.) >|= fun ws ->
      Dcl.Vqd.of_pmf scheme5 (Array.of_list ws))
  in
  QCheck.make gen

let prop_wdcl_monotone_in_beta =
  QCheck.Test.make ~name:"WDCL acceptance monotone in beta" ~count:200 vqd_arb (fun v ->
      let accept beta = (Dcl.Tests.wdcl ~beta ~eps:0. v).Dcl.Tests.verdict = Dcl.Tests.Accept in
      (* If it accepts at a small beta it must accept at a larger one. *)
      (not (accept 0.02)) || accept 0.2)

let prop_sdcl_implies_wdcl =
  QCheck.Test.make ~name:"SDCL acceptance implies WDCL acceptance" ~count:200 vqd_arb
    (fun v ->
      (Dcl.Tests.sdcl v).Dcl.Tests.verdict = Dcl.Tests.Reject
      || (Dcl.Tests.wdcl ~beta:0.06 ~eps:0. v).Dcl.Tests.verdict = Dcl.Tests.Accept)

let prop_bounds_ordering =
  QCheck.Test.make ~name:"WDCL bound <= SDCL bound" ~count:200 vqd_arb (fun v ->
      (* The beta-quantile is never above the median. *)
      Dcl.Bound.wdcl_bound ~beta:0.06 v <= Dcl.Bound.sdcl_bound v +. 1e-9)

let prop_symbol_roundtrip =
  QCheck.Test.make ~name:"bin midpoints land in their own symbol" ~count:300
    QCheck.(pair (int_range 1 40) (int_range 0 39))
    (fun (m, j) ->
      QCheck.assume (j < m);
      let s = Dcl.Discretize.of_range ~m ~lo:0.1 ~hi:1.7 in
      (* Bin edges are subject to floating-point rounding either way;
         the midpoint is unambiguous. *)
      let mid = Dcl.Discretize.queuing_value s j -. (s.Dcl.Discretize.width /. 2.) in
      Dcl.Discretize.symbol_of_queuing s mid = j)

let prop_symbolize_total =
  QCheck.Test.make ~name:"symbolize preserves length and loss positions" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) (option (float_range 0.05 2.)))
    (fun entries ->
      let obs =
        Array.of_list
          (List.map
             (function
               | Some d -> Probe.Trace.Delay d
               | None -> Probe.Trace.Lost)
             entries)
      in
      let s = Dcl.Discretize.of_range ~m:7 ~lo:0.05 ~hi:2. in
      let symbols = Dcl.Discretize.symbolize s (trace_of_obs obs) in
      Array.length symbols = Array.length obs
      && Array.for_all2
           (fun o sym ->
             match (o, sym) with
             | Probe.Trace.Lost, None -> true
             | Probe.Trace.Delay _, Some j -> j >= 0 && j < 7
             | _ -> false)
           obs symbols)

let prop_component_bound_dominated_by_range =
  QCheck.Test.make ~name:"component bound within the queuing range" ~count:200 vqd_arb
    (fun v ->
      let b = Dcl.Bound.component_bound v in
      b > 0. && b <= Dcl.Discretize.queuing_value v.Dcl.Vqd.scheme 4 +. 1e-9)

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_wdcl_monotone_in_beta;
      prop_sdcl_implies_wdcl;
      prop_bounds_ordering;
      prop_symbol_roundtrip;
      prop_symbolize_total;
      prop_component_bound_dominated_by_range;
    ]

let () =
  Alcotest.run "dcl"
    [
      ( "discretize",
        [
          Alcotest.test_case "ranges" `Quick test_discretize_ranges;
          Alcotest.test_case "queuing" `Quick test_discretize_queuing;
          Alcotest.test_case "symbolize" `Quick test_discretize_symbolize;
          Alcotest.test_case "invalid" `Quick test_discretize_invalid;
          Alcotest.test_case "of_trace" `Quick test_discretize_of_trace;
        ] );
      ( "vqd",
        [
          Alcotest.test_case "of pmf" `Quick test_vqd_of_pmf;
          Alcotest.test_case "of samples" `Quick test_vqd_of_samples;
          Alcotest.test_case "quantile" `Quick test_vqd_quantile;
          Alcotest.test_case "mean" `Quick test_vqd_mean;
          Alcotest.test_case "of trace truth" `Quick test_vqd_of_trace_truth;
          Alcotest.test_case "requires losses" `Quick test_vqd_requires_losses;
        ] );
      ( "hypothesis tests",
        [
          Alcotest.test_case "SDCL accepts strong" `Quick test_sdcl_accepts_strongly_dominant;
          Alcotest.test_case "SDCL rejects two lossy links" `Quick
            test_sdcl_rejects_two_lossy_links;
          Alcotest.test_case "WDCL worked example" `Quick test_wdcl_accepts_weakly_dominant;
          Alcotest.test_case "WDCL threshold formula" `Quick test_wdcl_threshold_formula;
          Alcotest.test_case "WDCL invalid params" `Quick test_wdcl_invalid_params;
          Alcotest.test_case "d* indexing" `Quick test_d_star_indexing_matches_paper;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "SDCL bound" `Quick test_sdcl_bound;
          Alcotest.test_case "WDCL bound" `Quick test_wdcl_bound;
          Alcotest.test_case "component bound" `Quick test_component_bound;
          Alcotest.test_case "single cluster" `Quick test_component_bound_single_cluster;
        ] );
      ( "truth",
        [
          Alcotest.test_case "classify" `Quick test_truth_classify;
          Alcotest.test_case "shares and delay condition" `Quick
            test_truth_shares_and_delay_condition;
        ] );
      ( "identify",
        [
          Alcotest.test_case "identifiable" `Quick test_identifiable;
          Alcotest.test_case "end-end pipeline" `Slow test_identify_runs_end_to_end;
          Alcotest.test_case "models agree" `Slow test_identify_models_agree_on_synthetic;
          Alcotest.test_case "rejects bad trace" `Quick test_identify_rejects_bad_trace;
          Alcotest.test_case "conclusion strings" `Quick test_conclusion_strings;
        ] );
      ("properties", qcheck_cases);
    ]
