(* Tests for the Markov model with a hidden dimension (MMHD): state
   indexing, forward-backward correctness against brute force, the
   Appendix-B EM, and Eq. (5). *)

let check_close eps = Alcotest.(check (float eps))

(* Reference model: 2 hidden states, 2 symbols (4 states).  Hidden
   dimension 1 corresponds to a "congested" phase in which symbol 1
   dominates and losses are frequent. *)
let reference =
  Mmhd.make ~n:2 ~m:2
    (* states: (0,0) (0,1) (1,0) (1,1) *)
    ~pi:[| 0.5; 0.2; 0.1; 0.2 |]
    ~a:
      [|
        0.70; 0.20; 0.05; 0.05;
        0.40; 0.40; 0.05; 0.15;
        0.20; 0.05; 0.40; 0.35;
        0.05; 0.05; 0.30; 0.60;
      |]
    ~c:[| 0.02; 0.30 |]

let ws = Em.domain_ws

let brute_force_likelihood (t : Em.model) obs =
  let emission s = function
    | Some j -> if s mod t.m = j then 1. -. t.c.(j) else 0.
    | None -> t.c.(s mod t.m)
  in
  let tt = Array.length obs in
  let total = ref 0. in
  for s0 = 0 to t.s - 1 do
    let rec walk time state prob =
      if prob = 0. then 0.
      else if time = tt - 1 then prob
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
    total := !total +. walk 0 s0 (t.pi.(s0) *. emission s0 obs.(0))
  done;
  !total

let short_obs = [| Some 0; Some 1; None; Some 1; Some 0; None; Some 0 |]

let test_state_indexing () =
  (* State x * m + y emits symbol y: (hidden 1, symbol 1) is state 3. *)
  Alcotest.(check int) "states" 4 reference.s;
  Alcotest.(check (array (float 0.))) "state 3 emits symbol 1" [| 0.; 1. |]
    (Array.sub reference.b (3 * 2) 2);
  for st = 0 to reference.s - 1 do
    for j = 0 to reference.m - 1 do
      Alcotest.(check (float 0.))
        (Printf.sprintf "b(%d, %d)" st j)
        (if st mod reference.m = j then 1. else 0.)
        reference.b.((st * reference.m) + j)
    done
  done

let test_likelihood_vs_brute_force () =
  check_close 1e-9 "scaled likelihood"
    (log (brute_force_likelihood reference short_obs))
    (Em.log_likelihood ~ws:(ws ()) reference short_obs)

let test_likelihood_all_observed () =
  let obs = [| Some 0; Some 0; Some 1; Some 1; Some 0 |] in
  check_close 1e-9 "all observed"
    (log (brute_force_likelihood reference obs))
    (Em.log_likelihood ~ws:(ws ()) reference obs)

let test_posteriors_normalized_and_consistent () =
  let gamma = Em.state_posteriors ~ws:(ws ()) reference short_obs in
  Array.iteri
    (fun t row ->
      check_close 1e-9 (Printf.sprintf "sums to 1 at %d" t) 1.
        (Array.fold_left ( +. ) 0. row);
      (* At an observed instant, only states carrying that symbol may
         have mass. *)
      match short_obs.(t) with
      | Some j ->
          Array.iteri
            (fun s g ->
              if s mod reference.m <> j && g > 1e-12 then
                Alcotest.failf "mass on wrong symbol at time %d" t)
            row
      | None -> ())
    gamma

let test_validate_reference () = Em.validate reference

let test_validate_rejects () =
  let bad = { reference with c = [| 0.5; 1.5 |] } in
  Alcotest.(check bool) "bad c rejected" true
    (try
       Em.validate bad;
       false
     with Invalid_argument _ -> true)

let test_inits_valid () =
  let rng = Stats.Rng.create 3 in
  for _ = 1 to 10 do
    Em.validate (Mmhd.init_random rng ~n:2 ~m:4 ~loss_fraction:0.05)
  done;
  let obs = [| Some 0; None; Some 2; Some 3; Some 1; None; Some 0 |] in
  Em.validate (Mmhd.init_informed rng ~n:3 ~m:4 obs)

let test_simulate_consistency () =
  let rng = Stats.Rng.create 5 in
  let obs, path = Mmhd.simulate rng reference ~len:20_000 in
  (* Every observed symbol must equal the state's symbol component. *)
  Array.iteri
    (fun t o ->
      match o with
      | Some j ->
          Alcotest.(check int) "observation = state symbol" (path.(t) mod reference.m) j
      | None -> ())
    obs;
  (* Empirical loss rate per symbol should approximate c. *)
  let seen = Array.make 2 0 and lost = Array.make 2 0 in
  Array.iteri
    (fun t o ->
      let y = path.(t) mod reference.m in
      match o with
      | Some _ -> seen.(y) <- seen.(y) + 1
      | None -> lost.(y) <- lost.(y) + 1)
    obs;
  Array.iteri
    (fun j c ->
      let f = float_of_int lost.(j) /. float_of_int (seen.(j) + lost.(j)) in
      check_close 0.03 (Printf.sprintf "c_%d recovered empirically" j) c f)
    reference.c

let test_em_improves_likelihood () =
  let rng = Stats.Rng.create 7 in
  let obs, _ = Mmhd.simulate rng reference ~len:3000 in
  let t0 = Mmhd.init_random rng ~n:2 ~m:2 ~loss_fraction:0.1 in
  let ll0 = Em.log_likelihood ~ws:(ws ()) t0 obs in
  let fitted, stats = Mmhd.fit_from ~max_iter:40 t0 obs in
  Alcotest.(check bool) "improved" true (stats.Em.log_likelihood > ll0);
  Em.validate fitted

let test_em_monotone_steps () =
  let rng = Stats.Rng.create 9 in
  let obs, _ = Mmhd.simulate rng reference ~len:2000 in
  let model = ref (Mmhd.init_random rng ~n:2 ~m:2 ~loss_fraction:0.1) in
  let last = ref (Em.log_likelihood ~ws:(ws ()) !model obs) in
  for step = 1 to 15 do
    let next, _ = Mmhd.fit_from ~max_iter:1 !model obs in
    let ll = Em.log_likelihood ~ws:(ws ()) next obs in
    if ll < !last -. 1e-6 then Alcotest.failf "likelihood decreased at step %d" step;
    last := ll;
    model := next
  done

let test_fit_recovers_c () =
  let rng = Stats.Rng.create 11 in
  let obs, _ = Mmhd.simulate rng reference ~len:30_000 in
  let fitted, _ = Mmhd.fit ~rng ~n:2 ~m:2 obs in
  check_close 0.03 "c_0" reference.c.(0) fitted.c.(0);
  check_close 0.05 "c_1" reference.c.(1) fitted.c.(1)

let test_fit_recovers_loss_posterior () =
  let rng = Stats.Rng.create 13 in
  let obs, path = Mmhd.simulate rng reference ~len:30_000 in
  (* Empirical ground truth P(Y = j | loss) from the hidden path. *)
  let cnt = Array.make 2 0. and total = ref 0. in
  Array.iteri
    (fun t o ->
      if o = None then begin
        cnt.(path.(t) mod reference.m) <-
          cnt.(path.(t) mod reference.m) +. 1.;
        total := !total +. 1.
      end)
    obs;
  let truth = Array.map (fun x -> x /. !total) cnt in
  let fitted, _ = Mmhd.fit ~rng ~n:2 ~m:2 obs in
  let pmf = Em.virtual_delay_pmf ~ws:(ws ()) fitted obs in
  check_close 0.04 "TV to hidden truth" 0. (Stats.Histogram.total_variation truth pmf)

let test_markov_degenerate () =
  (* n = 1: a plain Markov chain over the symbols. *)
  let rng = Stats.Rng.create 15 in
  let obs, _ = Mmhd.simulate rng reference ~len:8000 in
  let fitted, stats = Mmhd.fit ~rng ~n:1 ~m:2 obs in
  Alcotest.(check bool) "converged" true stats.Em.converged;
  Em.validate fitted;
  Alcotest.(check int) "2 states only" 2 fitted.s

let test_virtual_pmf_distribution () =
  let pmf = Em.virtual_delay_pmf ~ws:(ws ()) reference short_obs in
  check_close 1e-9 "sums to 1" 1. (Array.fold_left ( +. ) 0. pmf);
  Alcotest.(check int) "length m" 2 (Array.length pmf)

let test_virtual_pmf_requires_loss () =
  Alcotest.check_raises "no loss"
    (Invalid_argument "Em.virtual_delay_pmf: no loss in the sequence") (fun () ->
      ignore (Em.virtual_delay_pmf ~ws:(ws ()) reference [| Some 0; Some 1 |]))

let test_virtual_pmf_context_sensitivity () =
  (* A loss surrounded by symbol 1 must be attributed mostly to
     symbol 1 (it has both the adjacency and the higher c). *)
  let obs = [| Some 1; Some 1; None; Some 1; Some 1 |] in
  let pmf = Em.virtual_delay_pmf ~ws:(ws ()) reference obs in
  Alcotest.(check bool) "symbol 1 dominates" true (pmf.(1) > 0.8)

let test_empty_rejected () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Em.log_likelihood ~ws:(ws ()) reference [||]);
       false
     with Invalid_argument _ -> true)

(* QCheck: random small MMHDs match brute force. *)
let model_and_obs_gen =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let rng = Stats.Rng.create seed in
    let model = Mmhd.init_random rng ~n:2 ~m:2 ~loss_fraction:0.25 in
    let* len = int_range 2 7 in
    let obs, _ = Mmhd.simulate rng model ~len in
    return (model, obs))

let prop_likelihood_matches_brute_force =
  QCheck.Test.make ~name:"scaled likelihood = brute force" ~count:100
    (QCheck.make model_and_obs_gen) (fun (model, obs) ->
      abs_float (Em.log_likelihood ~ws:(ws ()) model obs -. log (brute_force_likelihood model obs))
      < 1e-8)

let prop_virtual_pmf_normalized =
  QCheck.Test.make ~name:"Eq. (5) posterior is a distribution" ~count:100
    (QCheck.make model_and_obs_gen) (fun (model, obs) ->
      QCheck.assume (Array.exists (fun o -> o = None) obs);
      let pmf = Em.virtual_delay_pmf ~ws:(ws ()) model obs in
      abs_float (Array.fold_left ( +. ) 0. pmf -. 1.) < 1e-9
      && Array.for_all (fun p -> p >= 0.) pmf)

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [ prop_likelihood_matches_brute_force; prop_virtual_pmf_normalized ]

let () =
  Alcotest.run "mmhd"
    [
      ( "structure",
        [
          Alcotest.test_case "state indexing" `Quick test_state_indexing;
          Alcotest.test_case "validate reference" `Quick test_validate_reference;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "inits valid" `Quick test_inits_valid;
        ] );
      ( "forward-backward",
        [
          Alcotest.test_case "likelihood vs brute force" `Quick
            test_likelihood_vs_brute_force;
          Alcotest.test_case "all observed" `Quick test_likelihood_all_observed;
          Alcotest.test_case "posteriors consistent" `Quick
            test_posteriors_normalized_and_consistent;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
        ] );
      ( "simulate",
        [ Alcotest.test_case "consistency with c and symbols" `Quick test_simulate_consistency ]
      );
      ( "em",
        [
          Alcotest.test_case "improves likelihood" `Quick test_em_improves_likelihood;
          Alcotest.test_case "monotone steps" `Quick test_em_monotone_steps;
          Alcotest.test_case "recovers c" `Slow test_fit_recovers_c;
          Alcotest.test_case "recovers loss posterior" `Slow test_fit_recovers_loss_posterior;
          Alcotest.test_case "markov degenerate (n=1)" `Quick test_markov_degenerate;
        ] );
      ( "virtual delay pmf",
        [
          Alcotest.test_case "is a distribution" `Quick test_virtual_pmf_distribution;
          Alcotest.test_case "requires a loss" `Quick test_virtual_pmf_requires_loss;
          Alcotest.test_case "context sensitivity" `Quick test_virtual_pmf_context_sensitivity;
        ] );
      ("properties", qcheck_cases);
    ]
