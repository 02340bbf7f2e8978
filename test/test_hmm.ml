(* Tests for the HMM with missing (loss) observations: correctness of
   the forward-backward machinery against brute-force enumeration, EM
   behaviour, and parameter recovery on synthetic data. *)

let check_close eps = Alcotest.(check (float eps))

(* Total-variation distance between two same-length pmfs. *)
let tv p q = 0.5 *. Array.fold_left ( +. ) 0. (Array.map2 (fun a b -> abs_float (a -. b)) p q)

(* A small, well-conditioned reference model: 2 hidden states, 3
   symbols.  State 0 emits low symbols and rarely loses; state 1 emits
   the top symbol and loses often. *)
let reference : Em.model =
  {
    s = 2;
    m = 3;
    pi = [| 0.7; 0.3 |];
    a = [| 0.9; 0.1; 0.2; 0.8 |];
    b = [| 0.6; 0.35; 0.05; 0.05; 0.15; 0.8 |];
    c = [| 0.01; 0.05; 0.4 |];
  }

let ws = Em.domain_ws

(* Brute-force likelihood: sum over all hidden state paths. *)
let brute_force_likelihood (t : Em.model) obs =
  let emission i j =
    if j < t.m then t.b.((i * t.m) + j) *. (1. -. t.c.(j))
    else begin
      let acc = ref 0. in
      for j = 0 to t.m - 1 do
        acc := !acc +. (t.b.((i * t.m) + j) *. t.c.(j))
      done;
      !acc
    end
  in
  let tt = Array.length obs in
  let total = ref 0. in
  for s0 = 0 to t.s - 1 do
    let p0 = t.pi.(s0) *. emission s0 obs.(0) in
    let rec walk time state prob =
      if time = tt - 1 then prob
      else begin
        let acc = ref 0. in
        for next = 0 to t.s - 1 do
          acc :=
            !acc
            +. walk (time + 1) next
                 (prob *. t.a.((state * t.s) + next) *. emission next obs.(time + 1))
        done;
        !acc
      end
    in
    total := !total +. walk 0 s0 p0
  done;
  !total

let short_obs = [| 0; 1; 3; 2; 0; 3; 1 |]

let test_likelihood_vs_brute_force () =
  let ll = Em.log_likelihood ~ws:(ws ()) reference short_obs in
  let bf = log (brute_force_likelihood reference short_obs) in
  check_close 1e-9 "scaled forward matches enumeration" bf ll

let test_likelihood_no_losses () =
  let obs = [| 0; 0; 1; 2; 1 |] in
  let ll = Em.log_likelihood ~ws:(ws ()) reference obs in
  let bf = log (brute_force_likelihood reference obs) in
  check_close 1e-9 "all-observed case" bf ll

let test_posteriors_normalized () =
  let gamma = Em.state_posteriors ~ws:(ws ()) reference short_obs in
  Array.iteri
    (fun t row ->
      let s = Array.fold_left ( +. ) 0. row in
      check_close 1e-9 (Printf.sprintf "gamma at %d sums to 1" t) 1. s)
    gamma

let test_posterior_tracks_emission () =
  (* A long run of the top symbol should put the posterior firmly on
     hidden state 1. *)
  let obs = Array.make 10 2 in
  let gamma = Em.state_posteriors ~ws:(ws ()) reference obs in
  Alcotest.(check bool) "state 1 dominant" true (gamma.(5).(1) > 0.9)

let test_validate_accepts_reference () = Em.validate reference

let test_validate_rejects_bad () =
  let rejected (bad : Em.model) =
    try
      Em.validate bad;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad pi rejected" true
    (rejected { reference with pi = [| 0.5; 0.7 |] });
  Alcotest.(check bool) "wrong-length a rejected" true
    (rejected { reference with a = [| 0.9; 0.1; 0.2 |] });
  Alcotest.(check bool) "non-stochastic b row rejected" true
    (rejected { reference with b = [| 0.6; 0.35; 0.05; 0.05; 0.15; 0.7 |] })

let test_init_random_valid () =
  let rng = Stats.Rng.create 3 in
  for _ = 1 to 20 do
    Em.validate (Hmm.init_random rng ~n:3 ~m:4 ~loss_fraction:0.02)
  done

let test_init_informed_valid () =
  let rng = Stats.Rng.create 5 in
  let obs = [| 0; 3; 1; 1; 3; 0; 2 |] in
  Em.validate (Hmm.init_informed rng ~n:2 ~m:3 obs)

let test_simulate_statistics () =
  let rng = Stats.Rng.create 7 in
  let obs, states = Hmm.simulate rng reference ~len:50_000 in
  Alcotest.(check int) "lengths match" (Array.length obs) (Array.length states);
  (* Loss fraction should be near the stationary mixture's value. *)
  let losses = Array.fold_left (fun n o -> if o = 3 then n + 1 else n) 0 obs in
  let frac = float_of_int losses /. 50_000. in
  Alcotest.(check bool) "plausible loss fraction" true (frac > 0.05 && frac < 0.25);
  (* Hidden states must be within range. *)
  Array.iter (fun s -> Alcotest.(check bool) "state range" true (s >= 0 && s < 2)) states

let test_em_improves_likelihood () =
  let rng = Stats.Rng.create 9 in
  let obs, _ = Hmm.simulate rng reference ~len:3000 in
  let t0 = Hmm.init_random rng ~n:2 ~m:3 ~loss_fraction:0.1 in
  let ll0 = Em.log_likelihood ~ws:(ws ()) t0 obs in
  let fitted, stats = Hmm.fit_from ~max_iter:30 t0 obs in
  Alcotest.(check bool) "EM improves the likelihood" true
    (stats.Em.log_likelihood > ll0);
  Em.validate fitted

let test_em_monotone_steps () =
  (* Likelihood must be non-decreasing across successive single-step
     fits (the fundamental EM guarantee). *)
  let rng = Stats.Rng.create 13 in
  let obs, _ = Hmm.simulate rng reference ~len:2000 in
  let model = ref (Hmm.init_random rng ~n:2 ~m:3 ~loss_fraction:0.1) in
  let last = ref (Em.log_likelihood ~ws:(ws ()) !model obs) in
  for step = 1 to 15 do
    let next, _ = Hmm.fit_from ~max_iter:1 !model obs in
    let ll = Em.log_likelihood ~ws:(ws ()) next obs in
    if ll < !last -. 1e-6 then Alcotest.failf "likelihood decreased at step %d" step;
    last := ll;
    model := next
  done

let test_fit_recovers_loss_posterior () =
  let rng = Stats.Rng.create 17 in
  let obs, _ = Hmm.simulate rng reference ~len:30_000 in
  (* (a) MLE consistency: EM started at the truth stays near it. *)
  let truth_pmf = Em.virtual_delay_pmf ~ws:(ws ()) reference obs in
  let at_truth, _ = Hmm.fit_from reference obs in
  let at_truth_pmf = Em.virtual_delay_pmf ~ws:(ws ()) at_truth obs in
  check_close 0.05 "EM started at the truth stays near it" 0.
    (tv truth_pmf at_truth_pmf);
  (* (b) optimization competitiveness: a data-driven fit reaches a
     likelihood close to the reference model's. *)
  let fitted, stats = Hmm.fit ~rng ~n:2 ~m:3 obs in
  Em.validate fitted;
  let ref_ll = Em.log_likelihood ~ws:(ws ()) reference obs in
  Alcotest.(check bool) "fit within 2% of the truth's likelihood" true
    (stats.Em.log_likelihood > ref_ll +. (0.02 *. ref_ll))

let test_virtual_pmf_is_distribution () =
  let pmf = Em.virtual_delay_pmf ~ws:(ws ()) reference short_obs in
  check_close 1e-9 "sums to 1" 1. (Array.fold_left ( +. ) 0. pmf);
  Array.iter (fun p -> Alcotest.(check bool) "non-negative" true (p >= 0.)) pmf

let test_virtual_pmf_requires_loss () =
  Alcotest.check_raises "no loss"
    (Invalid_argument "Em.virtual_delay_pmf: no loss in the sequence") (fun () ->
      ignore (Em.virtual_delay_pmf ~ws:(ws ()) reference [| 0; 1 |]))

let test_virtual_pmf_favors_lossy_symbol () =
  (* In the reference model symbol 2 has c = 0.4 vs 0.01/0.05: losses
     should be attributed mostly to symbol 2 when the hidden state
     suggests it. *)
  let obs = [| 2; 2; 3; 2; 2 |] in
  let pmf = Em.virtual_delay_pmf ~ws:(ws ()) reference obs in
  Alcotest.(check bool) "symbol 2 dominates" true (pmf.(2) > 0.8)

let test_empty_sequence_rejected () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Em.log_likelihood ~ws:(ws ()) reference [||]);
       false
     with Invalid_argument _ -> true)

let test_fit_invalid_restarts () =
  let rng = Stats.Rng.create 1 in
  Alcotest.check_raises "restarts 0" (Invalid_argument "Hmm.fit: restarts must be positive")
    (fun () -> ignore (Hmm.fit ~restarts:0 ~rng ~n:2 ~m:3 [| 0; 3; 1 |]))

let test_degenerate_single_state () =
  (* n = 1: the HMM reduces to an i.i.d. symbol model; fitting must
     still work and produce a sane loss posterior. *)
  let rng = Stats.Rng.create 19 in
  let obs, _ = Hmm.simulate rng reference ~len:5000 in
  let fitted, stats = Hmm.fit ~rng ~n:1 ~m:3 obs in
  Alcotest.(check bool) "converged" true stats.Em.converged;
  Em.validate fitted

(* QCheck: likelihood of random small models matches brute force on
   random short observation sequences.  Half the cases are MMHDs, whose
   0/1 emissions leave most states inactive at each instant, so the
   oracle also checks the kernel's emission table and active-state
   lists; their sequences are shorter because the enumeration costs
   s^T with s = n * m. *)
let model_and_obs_gen =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* mmhd = bool in
    let rng = Stats.Rng.create seed in
    if mmhd then
      let* n = int_range 1 2 in
      let* m = int_range 2 3 in
      let* len = int_range 2 6 in
      let model = Mmhd.init_random rng ~n ~m ~loss_fraction:0.2 in
      let obs, _ = Mmhd.simulate rng model ~len in
      return (model, obs)
    else
      let model = Hmm.init_random rng ~n:2 ~m:3 ~loss_fraction:0.2 in
      let* len = int_range 2 8 in
      let obs, _ = Hmm.simulate rng model ~len in
      return (model, obs))

let prop_likelihood_matches_brute_force =
  QCheck.Test.make ~name:"scaled likelihood = brute force" ~count:100
    (QCheck.make model_and_obs_gen) (fun (model, obs) ->
      let ll = Em.log_likelihood ~ws:(ws ()) model obs in
      let bf = log (brute_force_likelihood model obs) in
      abs_float (ll -. bf) < 1e-8)

(* Exact E-step statistics by enumeration: every hidden state path,
   and at each loss instant every hidden symbol, weighted by its joint
   probability with the observations.  Returns the posterior
   expectations of the transition counts over [0, T-2], their
   denominators, the per-(state, symbol) observation counts and the
   per-(state, symbol) loss counts — the quantities a sweep
   accumulates — and the state posteriors, [T * s] row-major by
   time. *)
let brute_force_estep (t : Em.model) obs =
  let s = t.s and m = t.m and tt = Array.length obs in
  let xi = Array.make (s * s) 0. and gamma_sum = Array.make s 0. in
  let count_obs = Array.make (s * m) 0. and count_loss = Array.make (s * m) 0. in
  let gamma = Array.make (tt * s) 0. in
  let states = Array.make tt 0 and symbols = Array.make tt 0 in
  let total = ref 0. in
  let add a i p = a.(i) <- a.(i) +. p in
  let rec walk time prob =
    if prob <= 0. then ()
    else if time = tt then begin
      total := !total +. prob;
      for u = 0 to tt - 1 do
        let x = states.(u) in
        add gamma ((u * s) + x) prob;
        if u <= tt - 2 then begin
          add xi ((x * s) + states.(u + 1)) prob;
          add gamma_sum x prob
        end;
        let j = obs.(u) in
        if j < m then add count_obs ((x * m) + j) prob
        else add count_loss ((x * m) + symbols.(u)) prob
      done
    end
    else
      for x = 0 to s - 1 do
        let step = if time = 0 then t.pi.(x) else t.a.((states.(time - 1) * s) + x) in
        let p = prob *. step in
        states.(time) <- x;
        let j = obs.(time) in
        if j < m then walk (time + 1) (p *. t.b.((x * m) + j) *. (1. -. t.c.(j)))
        else
          for y = 0 to m - 1 do
            symbols.(time) <- y;
            walk (time + 1) (p *. t.b.((x * m) + y) *. t.c.(y))
          done
      done
  in
  walk 0 1.;
  let posterior a = Array.map (fun v -> v /. !total) a in
  ( posterior xi,
    posterior gamma_sum,
    posterior count_obs,
    posterior count_loss,
    posterior gamma )

(* Random small HMMs (s <= 3) and MMHDs (n <= 2), m <= 3, T <= 5, with
   one position forced to a loss, and in about half the cases the first
   or the last instant (or both) lost too: a loss class's active list
   is the longest (every state with a lossy symbol), so those are the
   cases where it starts or ends the compact sweep buffers. *)
let estep_case_gen =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* mmhd = bool in
    let* n = int_range 1 (if mmhd then 2 else 3) in
    let* m = int_range 1 3 in
    let* len = int_range 1 5 in
    let* lost = int_range 0 (len - 1) in
    let* ends = int_range 0 3 in
    let rng = Stats.Rng.create seed in
    let model, (obs, _) =
      if mmhd then
        let model = Mmhd.init_random rng ~n ~m ~loss_fraction:0.2 in
        (model, Mmhd.simulate rng model ~len)
      else
        let model = Hmm.init_random rng ~n ~m ~loss_fraction:0.2 in
        (model, Hmm.simulate rng model ~len)
    in
    obs.(lost) <- m;
    if ends land 1 = 1 then obs.(0) <- m;
    if ends land 2 = 2 then obs.(len - 1) <- m;
    return (model, obs))

let print_estep_case ((t : Em.model), obs) =
  Printf.sprintf "s=%d m=%d obs=[%s]" t.s t.m
    (String.concat "; "
       (Array.to_list
          (Array.map (fun j -> if j < t.m then string_of_int j else "-") obs)))

(* A fresh [Incremental.append] holds exactly one sweep's statistics;
   they, the Eq. (5) pmf, the state posteriors at every instant, the
   filtered end (the posterior at the last instant) and the batch-start
   posterior (the M-step's new [pi]) must equal the exact
   expectations. *)
let prop_estep_matches_brute_force =
  QCheck.Test.make ~name:"E-step statistics = brute force" ~count:300
    (QCheck.make ~print:print_estep_case estep_case_gen) (fun ((t : Em.model), obs) ->
      let st = Em.Incremental.create ~s:t.s ~m:t.m in
      ignore (Em.Incremental.append ~ws:(ws ()) st t obs);
      let xi, gamma_sum, count_obs, count_loss, gamma = brute_force_estep t obs in
      let row time = Array.sub gamma (time * t.s) t.s in
      let lost =
        Array.init t.m (fun j ->
            let acc = ref 0. in
            for x = 0 to t.s - 1 do
              acc := !acc +. count_loss.((x * t.m) + j)
            done;
            !acc)
      in
      let total = Array.fold_left ( +. ) 0. lost in
      let check name exact computed =
        let d = Stats.Matrix.max_abs_diff exact computed in
        if not (d <= 1e-9) then QCheck.Test.fail_reportf "%s differs by %g" name d
      in
      check "xi" xi (Em.Incremental.xi st);
      check "gamma_sum" gamma_sum (Em.Incremental.gamma_sum st);
      check "count_obs" count_obs (Em.Incremental.count_obs st);
      check "count_loss" count_loss (Em.Incremental.count_loss st);
      check "virtual_delay_pmf"
        (Array.map (fun v -> v /. total) lost)
        (Em.virtual_delay_pmf ~ws:(ws ()) t obs);
      check "state_posteriors" gamma
        (Array.concat (Array.to_list (Em.state_posteriors ~ws:(ws ()) t obs)));
      check "filtered_end" (row (Array.length obs - 1)) (Em.Incremental.filtered_end st);
      check "batch-start posterior" (row 0) (Em.Incremental.m_step st t).pi;
      true)

let qcheck_cases =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest t)
    [ prop_likelihood_matches_brute_force; prop_estep_matches_brute_force ]

let () =
  Alcotest.run "hmm"
    [
      ( "forward-backward",
        [
          Alcotest.test_case "likelihood vs brute force" `Quick
            test_likelihood_vs_brute_force;
          Alcotest.test_case "all-observed case" `Quick test_likelihood_no_losses;
          Alcotest.test_case "posteriors normalized" `Quick test_posteriors_normalized;
          Alcotest.test_case "posterior tracks emission" `Quick
            test_posterior_tracks_emission;
          Alcotest.test_case "empty sequence" `Quick test_empty_sequence_rejected;
        ] );
      ( "model",
        [
          Alcotest.test_case "validate reference" `Quick test_validate_accepts_reference;
          Alcotest.test_case "validate rejects bad" `Quick test_validate_rejects_bad;
          Alcotest.test_case "random init valid" `Quick test_init_random_valid;
          Alcotest.test_case "informed init valid" `Quick test_init_informed_valid;
          Alcotest.test_case "simulate statistics" `Quick test_simulate_statistics;
        ] );
      ( "em",
        [
          Alcotest.test_case "improves likelihood" `Quick test_em_improves_likelihood;
          Alcotest.test_case "monotone steps" `Quick test_em_monotone_steps;
          Alcotest.test_case "recovers loss posterior" `Slow
            test_fit_recovers_loss_posterior;
          Alcotest.test_case "single hidden state" `Quick test_degenerate_single_state;
          Alcotest.test_case "invalid restarts" `Quick test_fit_invalid_restarts;
        ] );
      ( "virtual delay pmf",
        [
          Alcotest.test_case "is a distribution" `Quick test_virtual_pmf_is_distribution;
          Alcotest.test_case "requires a loss" `Quick test_virtual_pmf_requires_loss;
          Alcotest.test_case "favors lossy symbol" `Quick test_virtual_pmf_favors_lossy_symbol;
        ] );
      ("properties", qcheck_cases);
    ]
