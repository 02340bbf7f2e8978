(* Tests for the sketch triage layer: the EWMA coasting identity,
   Robbins-Monro quantile-tracker monotonicity and convergence, the
   per-signal suspect causes, and the promotion/demotion hysteresis
   machine. *)

let check_float = Alcotest.(check (float 1e-12))

(* --- loss EWMA ---------------------------------------------------------- *)

(* Coasting k epochs is the same as k explicit zero-updates, up to
   rounding — for every k, including long quiet spells. *)
let prop_ewma_coast_equals_zero_updates =
  QCheck.Test.make ~name:"ewma coast = k zero-updates" ~count:200
    QCheck.(pair (float_range 0.01 1.) (int_range 0 200))
    (fun (x0, k) ->
      let alpha = 0.15 in
      let a = Sketch.Estimators.Ewma.make ~alpha in
      let b = Sketch.Estimators.Ewma.make ~alpha in
      Sketch.Estimators.Ewma.update a x0;
      Sketch.Estimators.Ewma.update b x0;
      Sketch.Estimators.Ewma.coast a k;
      for _ = 1 to k do
        Sketch.Estimators.Ewma.update b 0.
      done;
      Stats.Float_cmp.approx_eq ~eps:1e-12
        (Sketch.Estimators.Ewma.value a)
        (Sketch.Estimators.Ewma.value b))

let test_ewma_priming_and_convergence () =
  let e = Sketch.Estimators.Ewma.make ~alpha:0.2 in
  Alcotest.(check bool) "unprimed" false (Sketch.Estimators.Ewma.primed e);
  check_float "zero before the first update" 0. (Sketch.Estimators.Ewma.value e);
  Sketch.Estimators.Ewma.update e 0.7;
  check_float "first update primes directly" 0.7 (Sketch.Estimators.Ewma.value e);
  for _ = 1 to 200 do
    Sketch.Estimators.Ewma.update e 0.3
  done;
  Alcotest.(check (float 1e-6)) "converges to the constant input" 0.3
    (Sketch.Estimators.Ewma.value e);
  (* Coasting an unprimed EWMA stays a no-op. *)
  let fresh = Sketch.Estimators.Ewma.make ~alpha:0.2 in
  Sketch.Estimators.Ewma.coast fresh 5;
  Alcotest.(check bool) "coast does not prime" false
    (Sketch.Estimators.Ewma.primed fresh)

let test_ewma_validation () =
  Alcotest.check_raises "alpha zero"
    (Invalid_argument "Sketch.Estimators.Ewma.make: alpha must be in (0, 1]")
    (fun () -> ignore (Sketch.Estimators.Ewma.make ~alpha:0.));
  Alcotest.check_raises "negative coast"
    (Invalid_argument "Sketch.Estimators.Ewma.coast: negative epochs")
    (fun () -> Sketch.Estimators.Ewma.coast (Sketch.Estimators.Ewma.make ~alpha:0.5) (-1))

(* --- quantile tracker --------------------------------------------------- *)

(* Monotone by construction: an observation above the estimate can only
   raise it, one at or below can only lower it (and never outside
   [lo, hi]). *)
let prop_quantile_update_monotone =
  QCheck.Test.make ~name:"quantile update moves toward the observation"
    ~count:300
    QCheck.(pair (small_list (float_range 0. 4.)) (float_range 0. 4.))
    (fun (warm, y) ->
      let q = Sketch.Estimators.Quantile.make ~p:0.75 ~lo:0. ~hi:4. in
      List.iter (Sketch.Estimators.Quantile.update q) warm;
      let before = Sketch.Estimators.Quantile.value q in
      Sketch.Estimators.Quantile.update q y;
      let after = Sketch.Estimators.Quantile.value q in
      let ok_dir =
        if Sketch.Estimators.Quantile.count q = 1 then true
          (* first observation primes the estimate directly *)
        else if Stats.Float_cmp.gt y before then Stats.Float_cmp.geq after before
        else Stats.Float_cmp.leq after before
      in
      ok_dir
      && Stats.Float_cmp.geq after 0.
      && Stats.Float_cmp.leq after 4.
      && Stats.Float_cmp.geq (Sketch.Estimators.Quantile.elevation q) 0.
      && Stats.Float_cmp.leq (Sketch.Estimators.Quantile.elevation q) 1.)

let test_quantile_converges () =
  (* Uniform draws over the symbol range: the p75 of uniform [0, 4] is
     3; the tracker should land nearby with the 1/n-quantized gains. *)
  let q = Sketch.Estimators.Quantile.make ~p:0.75 ~lo:0. ~hi:4. in
  let rng = Stats.Rng.create 1234 in
  for _ = 1 to 5000 do
    Sketch.Estimators.Quantile.update q (4. *. Stats.Rng.float rng)
  done;
  Alcotest.(check (float 0.35)) "p75 of uniform [0,4]" 3.
    (Sketch.Estimators.Quantile.value q);
  Alcotest.(check (float 0.1)) "elevation = value / range" 0.75
    (Sketch.Estimators.Quantile.elevation q)

let test_quantile_concentrated_input () =
  (* All mass at one symbol: the estimate hovers at the symbol within
     the tracker's steady-state oscillation (ties step downward by
     step * (1 - p), ~0.008 at this count), and elevation reads the
     symbol's height — the drift signal the gate thresholds. *)
  let q = Sketch.Estimators.Quantile.make ~p:0.75 ~lo:0. ~hi:4. in
  for _ = 1 to 500 do
    Sketch.Estimators.Quantile.update q 4.
  done;
  Alcotest.(check (float 0.02)) "pins to the constant input" 4.
    (Sketch.Estimators.Quantile.value q);
  Alcotest.(check (float 0.02)) "full elevation" 1.
    (Sketch.Estimators.Quantile.elevation q)

let test_quantile_clamps () =
  let q = Sketch.Estimators.Quantile.make ~p:0.5 ~lo:0. ~hi:4. in
  Sketch.Estimators.Quantile.update q 100.;
  Alcotest.(check bool) "primed value clamped" true
    (Stats.Float_cmp.leq (Sketch.Estimators.Quantile.value q) 4.);
  for _ = 1 to 50 do
    Sketch.Estimators.Quantile.update q (-100.)
  done;
  Alcotest.(check bool) "driven value clamped at lo" true
    (Stats.Float_cmp.geq (Sketch.Estimators.Quantile.value q) 0.)

let test_quantile_validation () =
  Alcotest.check_raises "p at the boundary"
    (Invalid_argument "Sketch.Estimators.Quantile.make: p must be in (0, 1)")
    (fun () ->
      ignore (Sketch.Estimators.Quantile.make ~p:1. ~lo:0. ~hi:1.));
  Alcotest.check_raises "empty range"
    (Invalid_argument "Sketch.Estimators.Quantile.make: lo must be below hi")
    (fun () ->
      ignore (Sketch.Estimators.Quantile.make ~p:0.5 ~lo:1. ~hi:1.))

(* --- gate hysteresis ---------------------------------------------------- *)

let step cfg g ~suspect ~calm ~settled =
  Sketch.Gate.step cfg g ~suspect ~calm ~settled

let test_gate_promotes_after_exactly_h () =
  let cfg = Sketch.Gate.config ~promote_after:3 () in
  let g = Sketch.Gate.create () in
  Alcotest.(check bool) "starts quiet" false (Sketch.Gate.promoted g);
  Alcotest.(check bool) "epoch 1 stays" true
    (step cfg g ~suspect:true ~calm:false ~settled:false = Sketch.Gate.Stay);
  Alcotest.(check bool) "epoch 2 stays" true
    (step cfg g ~suspect:true ~calm:false ~settled:false = Sketch.Gate.Stay);
  Alcotest.(check bool) "epoch 3 promotes" true
    (step cfg g ~suspect:true ~calm:false ~settled:false = Sketch.Gate.Promote);
  Alcotest.(check bool) "now promoted" true (Sketch.Gate.promoted g)

let test_gate_suspect_gap_resets_streak () =
  let cfg = Sketch.Gate.config ~promote_after:2 () in
  let g = Sketch.Gate.create () in
  ignore (step cfg g ~suspect:true ~calm:false ~settled:false);
  ignore (step cfg g ~suspect:false ~calm:true ~settled:false);
  Alcotest.(check int) "gap cleared the streak" 0 (Sketch.Gate.streak g);
  Alcotest.(check bool) "needs the full run again" true
    (step cfg g ~suspect:true ~calm:false ~settled:false = Sketch.Gate.Stay);
  Alcotest.(check bool) "second consecutive promotes" true
    (step cfg g ~suspect:true ~calm:false ~settled:false = Sketch.Gate.Promote)

let test_gate_demotion_needs_calm_and_settled () =
  let cfg = Sketch.Gate.config ~promote_after:1 ~demote_after:2 () in
  let g = Sketch.Gate.create () in
  ignore (step cfg g ~suspect:true ~calm:false ~settled:false);
  Alcotest.(check bool) "promoted" true (Sketch.Gate.promoted g);
  (* Calm without a settled no-dominant verdict never demotes. *)
  for _ = 1 to 5 do
    Alcotest.(check bool) "calm alone stays" true
      (step cfg g ~suspect:false ~calm:true ~settled:false = Sketch.Gate.Stay)
  done;
  (* Calm and settled, but interrupted: the streak starts over. *)
  ignore (step cfg g ~suspect:false ~calm:true ~settled:true);
  ignore (step cfg g ~suspect:true ~calm:false ~settled:true);
  Alcotest.(check bool) "interruption resets" true
    (step cfg g ~suspect:false ~calm:true ~settled:true = Sketch.Gate.Stay);
  Alcotest.(check bool) "second consecutive demotes" true
    (step cfg g ~suspect:false ~calm:true ~settled:true = Sketch.Gate.Demote);
  Alcotest.(check bool) "back to quiet" false (Sketch.Gate.promoted g)

let test_gate_signal_thresholds () =
  let cfg =
    Sketch.Gate.config ~loss_threshold:0.2 ~drift_threshold:0.75 ()
  in
  let suspect ~loss ~drift = Sketch.Gate.suspect_cause cfg ~loss ~drift <> None in
  Alcotest.(check bool) "loss at threshold is suspect" true
    (suspect ~loss:0.2 ~drift:0.);
  Alcotest.(check bool) "drift at threshold is suspect" true
    (suspect ~loss:0. ~drift:0.75);
  Alcotest.(check bool) "both below is not suspect" false
    (suspect ~loss:0.19 ~drift:0.74);
  Alcotest.(check bool) "inside the margin band is not calm" false
    (Sketch.Gate.calm cfg ~loss:0.17 ~drift:0.);
  Alcotest.(check bool) "below both margins is calm" true
    (Sketch.Gate.calm cfg ~loss:0.15 ~drift:0.5)

let test_suspect_cause_per_signal () =
  let cfg = Sketch.Gate.config ~loss_threshold:0.2 ~drift_threshold:0.75 () in
  let check name expected ~loss ~drift =
    Alcotest.(check bool) name true
      (Sketch.Gate.suspect_cause cfg ~loss ~drift = expected)
  in
  check "loss alone at its threshold" (Some Sketch.Gate.Loss) ~loss:0.2 ~drift:0.74;
  check "drift alone at its threshold" (Some Sketch.Gate.Drift) ~loss:0.19
    ~drift:0.75;
  check "both at their thresholds" (Some Sketch.Gate.Both) ~loss:0.2 ~drift:0.75;
  check "both just below" None ~loss:0.19 ~drift:0.74;
  List.iter
    (fun (c, name) -> Alcotest.(check string) name name (Sketch.Gate.cause_name c))
    [
      (Sketch.Gate.Loss, "loss-ewma");
      (Sketch.Gate.Drift, "drift");
      (Sketch.Gate.Both, "loss-ewma+drift");
    ]

let test_gate_config_validation () =
  Alcotest.check_raises "promote_after zero"
    (Invalid_argument "Sketch.Gate.config: promote_after must be positive")
    (fun () -> ignore (Sketch.Gate.config ~promote_after:0 ()))

let () =
  Alcotest.run "sketch"
    [
      ( "ewma",
        [
          QCheck_alcotest.to_alcotest prop_ewma_coast_equals_zero_updates;
          Alcotest.test_case "priming and convergence" `Quick
            test_ewma_priming_and_convergence;
          Alcotest.test_case "validation" `Quick test_ewma_validation;
        ] );
      ( "quantile",
        [
          QCheck_alcotest.to_alcotest prop_quantile_update_monotone;
          Alcotest.test_case "converges on uniform input" `Quick
            test_quantile_converges;
          Alcotest.test_case "concentrated input" `Quick
            test_quantile_concentrated_input;
          Alcotest.test_case "clamps" `Quick test_quantile_clamps;
          Alcotest.test_case "validation" `Quick test_quantile_validation;
        ] );
      ( "gate",
        [
          Alcotest.test_case "promotes after exactly H" `Quick
            test_gate_promotes_after_exactly_h;
          Alcotest.test_case "gap resets streak" `Quick
            test_gate_suspect_gap_resets_streak;
          Alcotest.test_case "demotion needs calm+settled" `Quick
            test_gate_demotion_needs_calm_and_settled;
          Alcotest.test_case "signal thresholds" `Quick test_gate_signal_thresholds;
          Alcotest.test_case "config validation" `Quick test_gate_config_validation;
        ] );
      ( "gate-causes",
        [
          Alcotest.test_case "suspect cause per signal" `Quick
            test_suspect_cause_per_signal;
        ] );
    ]
