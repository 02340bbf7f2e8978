(* Tests for the shared EM kernel: degenerate-restart skipping and
   workspace reuse across differently-sized models. *)

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
      ( "workspace",
        [
          Alcotest.test_case "reuse across sizes" `Quick
            test_workspace_reuse_across_sizes;
          Alcotest.test_case "restart validation" `Quick test_restarts_validation;
        ] );
    ]
