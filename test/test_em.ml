(* Tests for the shared EM kernel: degenerate-restart skipping, the
   SQUAREM-accelerated fit loop, lazy forward scaling against a
   log-domain reference, and workspace reuse across differently-sized
   models. *)

let check_float = Alcotest.(check (float 1e-12))

let mmhd_obs ~seed ~len =
  let rng = Stats.Rng.create seed in
  let truth = Mmhd.init_random rng ~n:2 ~m:4 ~loss_fraction:0.08 in
  let obs, _ = Mmhd.simulate rng truth ~len in
  obs.(0) <- Some 0;
  obs.(1) <- None;
  obs

let check_same_floats name a b =
  Alcotest.(check (array (float 0.))) name a b

(* --- degenerate restarts are skipped, not fatal ------------------------ *)

(* A model whose emission rows assign zero probability to symbol 0 has
   zero likelihood on any sequence containing symbol 0. *)
let degenerate_model : Em.model =
  {
    Em.s = 2;
    m = 2;
    pi = [| 0.5; 0.5 |];
    a = [| 0.5; 0.5; 0.5; 0.5 |];
    b = [| 0.; 1.; 0.; 1. |];
    c = [| 0.1; 0.1 |];
  }

let sane_model : Em.model =
  {
    Em.s = 2;
    m = 2;
    pi = [| 0.6; 0.4 |];
    a = [| 0.7; 0.3; 0.2; 0.8 |];
    b = [| 0.8; 0.2; 0.3; 0.7 |];
    c = [| 0.1; 0.2 |];
  }

let em_obs = [| Some 0; Some 1; None; Some 0; Some 1; Some 1; Some 0; None; Some 1 |]

(* [Em.fit_informed] over [restarts] starts drawn from [init]; the
   fit is serial, so starts are drawn in restart order. *)
let fit_informed ~restarts ~init =
  Em.fit_informed ~max_iter:20 ~restarts ~who:"test" ~rng:(Stats.Rng.create 1)
    ~update_b:true ~init em_obs

let test_degenerate_restart_skipped () =
  let drawn = ref 0 in
  let init _ =
    incr drawn;
    if !drawn = 1 then degenerate_model else sane_model
  in
  let model, stats = fit_informed ~restarts:2 ~init in
  (* The surviving restart's fit is returned, not an exception, and the
     discarded restart is accounted for. *)
  Alcotest.(check bool) "finite log-likelihood" true
    (Float.is_finite stats.Em.log_likelihood);
  Alcotest.(check int) "state count preserved" 2 model.Em.s;
  Alcotest.(check int) "one restart skipped" 1 stats.Em.skipped_restarts

let test_healthy_fit_skips_nothing () =
  let _, stats = fit_informed ~restarts:3 ~init:(fun _ -> sane_model) in
  Alcotest.(check int) "no skipped restarts" 0 stats.Em.skipped_restarts;
  let ws = Em.workspace () in
  let _, from_stats = Em.fit_from ~ws ~max_iter:20 ~update_b:true sane_model em_obs in
  Alcotest.(check int) "fit_from never skips" 0 from_stats.Em.skipped_restarts

let test_all_degenerate_fails () =
  Alcotest.check_raises "all restarts degenerate"
    (Failure "test: every restart hit a zero-likelihood degeneracy")
    (fun () -> ignore (fit_informed ~restarts:3 ~init:(fun _ -> degenerate_model)))

let test_zero_likelihood_carries_time () =
  (* The exception reports the first impossible observation's index. *)
  let ws = Em.workspace () in
  match Em.log_likelihood ~ws degenerate_model [| Some 1; Some 1; Some 0 |] with
  | _ -> Alcotest.fail "expected Zero_likelihood"
  | exception Em.Zero_likelihood t -> Alcotest.(check int) "failing time" 2 t

(* A symbol outside [0, m) is rejected with its time index, not read
   as the loss class (symbol m) or past the emission table (-1). *)
let test_out_of_range_symbols () =
  let ws = Em.workspace () in
  let model = Mmhd.init_random (Stats.Rng.create 4) ~n:2 ~m:3 ~loss_fraction:0.1 in
  Alcotest.check_raises "symbol m"
    (Invalid_argument "Em: symbol 3 at time 2 is outside [0, 3)") (fun () ->
      ignore (Em.log_likelihood ~ws model [| Some 0; Some 1; Some 3; Some 2 |]));
  Alcotest.check_raises "symbol -1"
    (Invalid_argument "Em: symbol -1 at time 1 is outside [0, 3)") (fun () ->
      ignore (Em.log_likelihood ~ws model [| Some 0; Some (-1); None |]))

let test_em_floors_keep_fit_alive () =
  (* Starting EM from a model already carrying hard zeros in re-estimated
     blocks must not abort: the M-step floors keep later iterations
     strictly positive wherever the data demands it. *)
  let nearly_degenerate : Em.model =
    (* Identity transitions: hard zeros off-diagonal, both states
       occupied, so both rows get re-estimated and floored. *)
    {
      Em.s = 2;
      m = 2;
      pi = [| 0.5; 0.5 |];
      a = [| 1.; 0.; 0.; 1. |];
      b = [| 0.5; 0.5; 0.5; 0.5 |];
      c = [| 0.1; 0.1 |];
    }
  in
  let ws = Em.workspace () in
  let fitted, stats = Em.fit_from ~ws ~max_iter:30 ~update_b:true nearly_degenerate em_obs in
  Alcotest.(check bool) "finite" true (Float.is_finite stats.Em.log_likelihood);
  (* Transition rows were floored away from exact zero. *)
  Array.iter
    (fun p -> Alcotest.(check bool) "transition > 0" true (p > 0.))
    fitted.Em.a

(* --- the accelerated fit loop ------------------------------------------ *)

let test_fit_arguments () =
  let ws = Em.workspace () in
  let fit ?eps ?max_iter () =
    ignore (Em.fit_from ~ws ?eps ?max_iter ~update_b:true sane_model em_obs)
  in
  let max_iter_msg = Invalid_argument "Em.fit_from: max_iter must be at least 1" in
  let eps_msg = Invalid_argument "Em.fit_from: eps must be a non-negative number" in
  Alcotest.check_raises "max_iter 0" max_iter_msg (fun () -> fit ~max_iter:0 ());
  Alcotest.check_raises "max_iter -3" max_iter_msg (fun () -> fit ~max_iter:(-3) ());
  Alcotest.check_raises "eps nan" eps_msg (fun () -> fit ~eps:Float.nan ());
  Alcotest.check_raises "eps -1e-3" eps_msg (fun () -> fit ~eps:(-1e-3) ());
  Alcotest.check_raises "fit_informed names its caller"
    (Invalid_argument "test: max_iter must be at least 1") (fun () ->
      ignore
        (Em.fit_informed ~max_iter:0 ~who:"test" ~rng:(Stats.Rng.create 1) ~update_b:true
           ~init:(fun _ -> sane_model) em_obs));
  (* eps = 0 is valid: it stops only on a step that changes no
     parameter, so the fit runs to the cap. *)
  let _, stats = Em.fit_from ~ws ~eps:0. ~max_iter:5 ~update_b:true sane_model em_obs in
  Alcotest.(check int) "eps 0 runs to max_iter" 5 stats.Em.iterations;
  Alcotest.(check bool) "eps 0 not converged" false stats.Em.converged

(* A simulated sequence from a random model of one family, and an
   independent random start of the same family. *)
let random_case ~hmm ~seed ~n ~m ~len =
  let rng = Stats.Rng.create seed in
  let init = if hmm then Hmm.init_random else Mmhd.init_random in
  let simulate = if hmm then Hmm.simulate else Mmhd.simulate in
  let obs, _ = simulate rng (init rng ~n ~m ~loss_fraction:0.1) ~len in
  (obs, init rng ~n ~m ~loss_fraction:0.1)

let prop_fit_invariants =
  QCheck.Test.make ~count:150
    ~name:"fit_from: valid model, exact sweep cap, logL finite and >= start"
    QCheck.(
      make
        ~print:Print.(tup6 int bool int int int int)
        Gen.(
          tup6 (int_bound 100_000) bool (int_range 1 3) (int_range 2 4) (int_range 20 300)
            (oneof [ int_range 1 7; int_range 8 80 ])))
    (fun (seed, hmm, n, m, len, max_iter) ->
      let obs, t0 = random_case ~hmm ~seed ~n ~m ~len in
      let ws = Em.workspace () in
      let ll0 = Em.log_likelihood ~ws t0 obs in
      let model, stats = Em.fit_from ~ws ~max_iter ~update_b:hmm t0 obs in
      Em.validate model;
      stats.Em.iterations >= 1
      && stats.Em.iterations <= max_iter
      && (stats.Em.converged || stats.Em.iterations = max_iter)
      && Float.is_finite stats.Em.log_likelihood
      && stats.Em.log_likelihood >= ll0
      && stats.Em.log_likelihood = Em.log_likelihood ~ws model obs)


(* Plain EM, the loop the accelerated fit replaced: [em_step] until
   one step moves no parameter by more than [eps]. *)
let plain_em ~ws ~update_b ~eps t obs =
  let diff = Stats.Matrix.max_abs_diff in
  let rec go (t : Em.model) steps =
    let t' = Em.em_step ~ws ~update_b t obs in
    let change =
      Float.max
        (Float.max (diff t.Em.pi t'.Em.pi) (diff t.Em.a t'.Em.a))
        (Float.max (diff t.Em.b t'.Em.b) (diff t.Em.c t'.Em.c))
    in
    if change <= eps || steps >= 20_000 then t' else go t' (steps + 1)
  in
  go t 1

(* Well-separated truths for the fixed-point comparison: a Markov chain
   over 3 symbols (the MMHD with n = 1) and a 2-state HMM. *)
let markov_truth =
  Mmhd.make ~n:1 ~m:3 ~pi:[| 0.5; 0.3; 0.2 |]
    ~a:[| 0.8; 0.15; 0.05; 0.2; 0.6; 0.2; 0.05; 0.25; 0.7 |]
    ~c:[| 0.01; 0.03; 0.3 |]

let hmm_truth : Em.model =
  {
    Em.s = 2;
    m = 3;
    pi = [| 0.7; 0.3 |];
    a = [| 0.95; 0.05; 0.1; 0.9 |];
    b = [| 0.85; 0.13; 0.02; 0.02; 0.08; 0.9 |];
    c = [| 0.01; 0.05; 0.4 |];
  }

(* Run to eps 1e-6 from the same informed start, the accelerated fit
   and plain EM reach the same fixed point: logL within 1e-4 nats per
   observation, and for the Markov model the Eq. (5) pmf within 1e-3.
   The HMM's pmf is not compared: with m > n its emissions (n (m - 1)
   free entries of b plus m of c, against n m probabilities the data
   pin) are not identified, so fits of equal likelihood differ in
   their loss attribution along a ridge. *)
let test_fixed_point_agreement () =
  let len = 2000 in
  let ws = Em.workspace () in
  for seed = 1 to 4 do
    List.iter
      (fun hmm ->
        let rng = Stats.Rng.create seed in
        let truth = if hmm then hmm_truth else markov_truth in
        let simulate = if hmm then Hmm.simulate else Mmhd.simulate in
        let obs, _ = simulate rng truth ~len in
        obs.(0) <- Some 0;
        obs.(1) <- None;
        let t0 =
          if hmm then Hmm.init_informed rng ~n:2 ~m:3 obs
          else Mmhd.init_informed rng ~n:1 ~m:3 obs
        in
        let fitted, stats =
          Em.fit_from ~ws ~eps:1e-6 ~max_iter:20_000 ~update_b:hmm t0 obs
        in
        let plain = plain_em ~ws ~update_b:hmm ~eps:1e-6 t0 obs in
        let name = Printf.sprintf "%s seed %d" (if hmm then "hmm" else "markov") seed in
        Alcotest.(check bool) (name ^ ": converged") true stats.Em.converged;
        let ll_plain = Em.log_likelihood ~ws plain obs in
        Alcotest.(check (float (1e-4 *. float_of_int len)))
          (name ^ ": logL") ll_plain stats.Em.log_likelihood;
        if not hmm then
          Alcotest.(check (array (float 1e-3)))
            (name ^ ": virtual delay pmf")
            (Em.virtual_delay_pmf ~ws plain obs)
            (Em.virtual_delay_pmf ~ws fitted obs))
      [ false; true ]
  done

(* Starts whose first extrapolated point lowers the likelihood: the
   cycle falls back to the plain step from x2.  Random HMM starts over
   a fixed family of short sequences include such starts; with
   max_iter 3 each fit must end on the plain double step, bit for bit,
   without overshooting the cap, and run to convergence it must still
   return a valid model no worse than its start. *)
let test_fallback () =
  let fallbacks = Obs.Counter.make "dcl_em_squarem_fallbacks_total" in
  let ws = Em.workspace () in
  let found = ref 0 in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      for seed = 1 to 40 do
        let obs, t0 = random_case ~hmm:true ~seed ~n:2 ~m:3 ~len:200 in
        let before = Obs.Counter.value fallbacks in
        let capped, stats = Em.fit_from ~ws ~max_iter:3 ~update_b:true t0 obs in
        if Obs.Counter.value fallbacks > before then begin
          incr found;
          Alcotest.(check int) "cap exact" 3 stats.Em.iterations;
          Alcotest.(check bool) "not converged" false stats.Em.converged;
          let x2 =
            Em.em_step ~ws ~update_b:true (Em.em_step ~ws ~update_b:true t0 obs) obs
          in
          check_same_floats "pi = plain x2" x2.Em.pi capped.Em.pi;
          check_same_floats "a = plain x2" x2.Em.a capped.Em.a;
          check_same_floats "b = plain x2" x2.Em.b capped.Em.b;
          check_same_floats "c = plain x2" x2.Em.c capped.Em.c;
          let fitted, stats = Em.fit_from ~ws ~update_b:true t0 obs in
          Em.validate fitted;
          Alcotest.(check bool) "logL >= start" true
            (stats.Em.log_likelihood >= Em.log_likelihood ~ws t0 obs)
        end
      done);
  Alcotest.(check bool) "some start falls back" true (!found > 0)

(* --- lazy forward scaling against a log-domain reference ---------------- *)

(* The forward-backward recursion in the log domain (logsumexp), with
   the kernel's emission model: e(st, Some j) = b(st, j) (1 - c_j) and
   e(st, None) = sum_j b(st, j) c_j.  Each log row is shifted by its
   own logsumexp to keep its values near zero (an exact identity in
   the log domain, whatever the kernel's scaling), and the shifts of
   the forward rows are summed with Kahan compensation into the
   log-likelihood.  Returns the log-likelihood and the state
   posteriors. *)
let log_domain_reference (t : Em.model) obs =
  let s = t.Em.s and m = t.Em.m in
  let tt = Array.length obs in
  let log_e st = function
    | Some j -> log (t.Em.b.((st * m) + j) *. (1. -. t.Em.c.(j)))
    | None ->
        let acc = ref 0. in
        for j = 0 to m - 1 do
          acc := !acc +. (t.Em.b.((st * m) + j) *. t.Em.c.(j))
        done;
        log !acc
  in
  let logsumexp f =
    let mx = ref Float.neg_infinity in
    for k = 0 to s - 1 do
      mx := Float.max !mx (f k)
    done;
    if Float.is_finite !mx then begin
      let acc = ref 0. in
      for k = 0 to s - 1 do
        acc := !acc +. exp (f k -. !mx)
      done;
      !mx +. log !acc
    end
    else !mx
  in
  let shift row =
    let c = logsumexp (Array.get row) in
    Array.iteri (fun k v -> row.(k) <- v -. c) row;
    c
  in
  let la = Array.make_matrix tt s 0. and lb = Array.make_matrix tt s 0. in
  let log_a i j = log t.Em.a.((i * s) + j) in
  let ll = ref 0. and comp = ref 0. in
  let add c =
    let y = c -. !comp in
    let sum = !ll +. y in
    comp := sum -. !ll -. y;
    ll := sum
  in
  for st = 0 to s - 1 do
    la.(0).(st) <- log t.Em.pi.(st) +. log_e st obs.(0)
  done;
  add (shift la.(0));
  for time = 1 to tt - 1 do
    for j = 0 to s - 1 do
      la.(time).(j) <-
        logsumexp (fun i -> la.(time - 1).(i) +. log_a i j) +. log_e j obs.(time)
    done;
    add (shift la.(time))
  done;
  for time = tt - 2 downto 0 do
    for i = 0 to s - 1 do
      lb.(time).(i) <-
        logsumexp (fun j -> log_a i j +. log_e j obs.(time + 1) +. lb.(time + 1).(j))
    done;
    ignore (shift lb.(time))
  done;
  let post time =
    let g = Array.init s (fun st -> la.(time).(st) +. lb.(time).(st)) in
    ignore (shift g);
    Array.map exp g
  in
  (!ll, Array.init tt post)

(* [Em.log_likelihood] within 1e-9 relative and every posterior within
   1e-9 of the reference. *)
let check_against_reference name (t : Em.model) obs =
  let ws = Em.workspace () in
  let ll_ref, post_ref = log_domain_reference t obs in
  let ll = Em.log_likelihood ~ws t obs in
  Alcotest.(check (float (1e-9 *. Float.abs ll_ref))) (name ^ ": logL") ll_ref ll;
  let post = Em.state_posteriors ~ws t obs in
  let worst = ref 0. in
  Array.iteri
    (fun time row ->
      Array.iteri
        (fun st p -> worst := Float.max !worst (Float.abs (p -. post_ref.(time).(st))))
        row)
    post;
  Alcotest.(check bool)
    (Printf.sprintf "%s: posteriors within 1e-9 (worst %.3g)" name !worst)
    true (!worst <= 1e-9);
  ll_ref

let test_long_sequence_reference () =
  (* 20,000 probes of a random MMHD: the likelihood falls through the
     kernel's renormalization floor (2^-256) many times, checked from
     the reference's own log-likelihood. *)
  let obs = mmhd_obs ~seed:31 ~len:20_000 in
  let t = Mmhd.init_informed (Stats.Rng.create 5) ~n:2 ~m:4 obs in
  let ll = check_against_reference "T = 20000" t obs in
  Alcotest.(check bool) "crosses the floor at least 50 times" true
    (-.ll /. (256. *. log 2.) >= 50.)

(* State 0 emits only symbol 0 (at 1 - c_0 = 1/2), state 1 only
   symbol 1, and the chain leaves state 0 with probability [leave]:
   after k symbols 0 the unnormalized forward sum is about 2^-k, so a
   symbol 1 there multiplies it by [leave]. *)
let two_regime ~leave : Em.model =
  {
    Em.s = 2;
    m = 2;
    pi = [| 1.; 0. |];
    a = [| 1. -. leave; leave; 0.5; 0.5 |];
    b = [| 1.; 0.; 0.; 1. |];
    c = [| 0.5; 0.1 |];
  }

(* Blocks of [k] symbols 0 followed by a symbol 1, a loss and another
   symbol 1, for each [k] of [ks]. *)
let blocks ks =
  Array.concat
    (List.map (fun k -> Array.append (Array.make k (Some 0)) [| Some 1; None; Some 1 |]) ks)

let test_underflow_guard () =
  (* A 1e-300 transition taken after 100-250 unnormalized steps: the
     product of the forward sum (2^-101 .. 2^-251) and 1e-300 is below
     the smallest subnormal, so the pass must restart with every row
     normalized.  No spurious Zero_likelihood, and the reference
     agrees. *)
  let t = two_regime ~leave:1e-300 in
  Em.validate t;
  ignore (check_against_reference "1e-300 transition" t (blocks [ 100; 150; 200; 250 ]));
  (* State 1 starts at 1e-300 and both states emit symbol 0 alike, so
     its filtered probability stays 1e-300 while the forward sum falls
     by 4 a step: an unnormalized row holds it below the smallest
     subnormal after 40 steps, and by step 300 that 0 has been carried
     through renormalized rows.  Symbol 2, which only state 1 emits, must then
     read as likely, not impossible. *)
  let t : Em.model =
    {
      Em.s = 2;
      m = 3;
      pi = [| 1.; 1e-300 |];
      a = [| 1.; 0.; 0.; 1. |];
      b = [| 0.5; 0.5; 0.; 0.5; 0.; 0.5 |];
      c = [| 0.5; 0.1; 0.1 |];
    }
  in
  Em.validate t;
  List.iter
    (fun k ->
      let obs = Array.append (Array.make k (Some 0)) [| Some 2 |] in
      ignore (check_against_reference (Printf.sprintf "1e-300 state, %d symbols 0" k) t obs))
    [ 50; 300 ]

let test_impossible_observation_index () =
  (* With the transition out of state 0 exactly zero, the first symbol 1
     is impossible: raised at its index, whether the row before it was
     left unnormalized (k = 200) or the sequence has renormalized
     several times first (k = 1000). *)
  let t = two_regime ~leave:0. in
  Em.validate t;
  let ws = Em.workspace () in
  List.iter
    (fun k ->
      match Em.log_likelihood ~ws t (blocks [ k ]) with
      | _ -> Alcotest.fail "expected Zero_likelihood"
      | exception Em.Zero_likelihood time ->
          Alcotest.(check int) (Printf.sprintf "index after %d symbols 0" k) k time)
    [ 200; 1000 ]

(* --- workspace reuse across sizes -------------------------------------- *)

let test_workspace_reuse_across_sizes () =
  (* Run a big model, then a smaller one, in the same workspace; the
     small model's results must match a fresh workspace bit-for-bit
     (stale buffer contents never leak through the active-set masks). *)
  let big_obs = mmhd_obs ~seed:23 ~len:400 in
  let small_obs = [| Some 0; None; Some 1; Some 1; Some 0; None; Some 1 |] in
  let shared = Em.workspace () in
  let big = Mmhd.init_informed (Stats.Rng.create 9) ~n:3 ~m:4 big_obs in
  ignore (Em.em_step ~ws:shared ~update_b:false big big_obs);
  let fresh = Em.workspace () in
  let ll_shared = Em.log_likelihood ~ws:shared sane_model small_obs in
  let ll_fresh = Em.log_likelihood ~ws:fresh sane_model small_obs in
  check_float "log-likelihood identical" ll_fresh ll_shared;
  let step_shared = Em.em_step ~ws:shared ~update_b:true sane_model small_obs in
  let step_fresh = Em.em_step ~ws:fresh ~update_b:true sane_model small_obs in
  check_same_floats "pi" step_fresh.Em.pi step_shared.Em.pi;
  check_same_floats "a" step_fresh.Em.a step_shared.Em.a;
  check_same_floats "b" step_fresh.Em.b step_shared.Em.b;
  check_same_floats "c" step_fresh.Em.c step_shared.Em.c

let test_restarts_validation () =
  Alcotest.check_raises "restarts must be positive"
    (Invalid_argument "test: restarts must be positive")
    (fun () -> ignore (fit_informed ~restarts:0 ~init:(fun _ -> sane_model)))

let () =
  Alcotest.run "em"
    [
      ( "degeneracy",
        [
          Alcotest.test_case "degenerate restart skipped" `Quick
            test_degenerate_restart_skipped;
          Alcotest.test_case "healthy fit skips nothing" `Quick
            test_healthy_fit_skips_nothing;
          Alcotest.test_case "all degenerate fails" `Quick test_all_degenerate_fails;
          Alcotest.test_case "zero likelihood carries time" `Quick
            test_zero_likelihood_carries_time;
          Alcotest.test_case "floors keep fit alive" `Quick
            test_em_floors_keep_fit_alive;
          Alcotest.test_case "out-of-range symbols" `Quick test_out_of_range_symbols;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "log-domain reference, T = 20000" `Quick
            test_long_sequence_reference;
          Alcotest.test_case "underflow guard" `Quick test_underflow_guard;
          Alcotest.test_case "impossible observation index" `Quick
            test_impossible_observation_index;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "reuse across sizes" `Quick
            test_workspace_reuse_across_sizes;
          Alcotest.test_case "restart validation" `Quick test_restarts_validation;
        ] );
      ( "squarem",
        [
          Alcotest.test_case "argument validation" `Quick test_fit_arguments;
          QCheck_alcotest.to_alcotest prop_fit_invariants;
          Alcotest.test_case "fixed point of plain EM" `Quick test_fixed_point_agreement;
          Alcotest.test_case "fallback to the plain step" `Quick test_fallback;
        ] );
    ]
