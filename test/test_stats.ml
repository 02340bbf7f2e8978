(* Unit and property tests for the stats substrate. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* --- Rng --------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Stats.Rng.create 42 and b = Stats.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Stats.Rng.float a) (Stats.Rng.float b)
  done

let test_rng_seed_sensitivity () =
  let a = Stats.Rng.create 1 and b = Stats.Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Stats.Rng.float a = Stats.Rng.float b)

let test_rng_split_diverges () =
  let a = Stats.Rng.create 7 in
  let b = Stats.Rng.split a in
  let xs = Array.init 50 (fun _ -> Stats.Rng.float a) in
  let ys = Array.init 50 (fun _ -> Stats.Rng.float b) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let test_rng_float_range () =
  let rng = Stats.Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Stats.Rng.float rng in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %f" x
  done

(* Sample moments of [n] draws of [f]. *)
type moments = { mean : float; variance : float; min : float; max : float }

let moments f n =
  let xs = Array.init n (fun _ -> f ()) in
  let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
  let sq = Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. xs in
  {
    mean;
    variance = sq /. float_of_int (n - 1);
    min = Array.fold_left Float.min infinity xs;
    max = Array.fold_left Float.max neg_infinity xs;
  }

let test_rng_float_mean () =
  let rng = Stats.Rng.create 5 in
  let s = moments (fun () -> Stats.Rng.float rng) 50_000 in
  check_close 0.01 "mean ~ 1/2" 0.5 s.mean;
  check_close 0.01 "variance ~ 1/12" (1. /. 12.) s.variance

let test_rng_int_bounds () =
  let rng = Stats.Rng.create 11 in
  for _ = 1 to 10_000 do
    let x = Stats.Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.failf "int out of range: %d" x
  done

let test_rng_int_uniform () =
  let rng = Stats.Rng.create 13 in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let x = Stats.Rng.int rng 5 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      let f = float_of_int c /. float_of_int n in
      if abs_float (f -. 0.2) > 0.01 then Alcotest.failf "bucket %d biased: %f" i f)
    counts

let test_rng_int_invalid () =
  let rng = Stats.Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Stats.Rng.int rng 0))

(* --- Sampler ----------------------------------------------------------- *)

let test_uniform_sampler () =
  let rng = Stats.Rng.create 21 in
  let s = moments (fun () -> Stats.Sampler.uniform rng ~lo:2. ~hi:6.) 50_000 in
  check_close 0.05 "mean" 4. s.mean;
  Alcotest.(check bool) "bounds" true (s.min >= 2. && s.max < 6.)

let test_uniform_invalid () =
  let rng = Stats.Rng.create 1 in
  Alcotest.check_raises "lo > hi" (Invalid_argument "Sampler.uniform: lo > hi") (fun () ->
      ignore (Stats.Sampler.uniform rng ~lo:2. ~hi:1.))

let test_exponential_sampler () =
  let rng = Stats.Rng.create 23 in
  let s = moments (fun () -> Stats.Sampler.exponential rng ~rate:2.) 100_000 in
  check_close 0.01 "mean = 1/rate" 0.5 s.mean;
  check_close 0.02 "std = 1/rate" 0.5 (sqrt s.variance);
  Alcotest.(check bool) "non-negative" true (s.min >= 0.)

let test_exponential_invalid () =
  let rng = Stats.Rng.create 1 in
  Alcotest.check_raises "rate 0" (Invalid_argument "Sampler.exponential: rate <= 0")
    (fun () -> ignore (Stats.Sampler.exponential rng ~rate:0.))

let test_pareto_sampler () =
  let rng = Stats.Rng.create 25 in
  (* shape 3 has finite mean = shape*scale/(shape-1) = 3. *)
  let s = moments (fun () -> Stats.Sampler.pareto rng ~shape:3. ~scale:2.) 200_000 in
  check_close 0.08 "mean" 3. s.mean;
  Alcotest.(check bool) "min >= scale" true (s.min >= 2.)

let test_bernoulli_sampler () =
  let rng = Stats.Rng.create 29 in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Stats.Sampler.bernoulli rng ~p:0.3 then incr hits
  done;
  check_close 0.01 "p" 0.3 (float_of_int !hits /. 100_000.)

let test_categorical_sampler () =
  let rng = Stats.Rng.create 31 in
  let w = [| 1.; 0.; 3. |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 40_000 do
    let i = Stats.Sampler.categorical rng w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight bucket never drawn" 0 counts.(1);
  check_close 0.01 "ratio" 0.25 (float_of_int counts.(0) /. 40_000.)

let test_categorical_invalid () =
  let rng = Stats.Rng.create 1 in
  Alcotest.check_raises "zero total"
    (Invalid_argument "Sampler.categorical: total weight <= 0") (fun () ->
      ignore (Stats.Sampler.categorical rng [| 0.; 0. |]))

let test_dirichlet_like () =
  let rng = Stats.Rng.create 33 in
  for _ = 1 to 100 do
    let v = Stats.Sampler.dirichlet_like rng 6 in
    check_float "sums to 1" 1. (Array.fold_left ( +. ) 0. v);
    Array.iter (fun p -> Alcotest.(check bool) "positive" true (p > 0.)) v
  done

(* --- Summary ----------------------------------------------------------- *)

let test_quantiles () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  check_float "median" 30. (Stats.Summary.median xs);
  check_float "q0" 10. (Stats.Summary.quantile xs 0.);
  check_float "q1" 50. (Stats.Summary.quantile xs 1.);
  check_float "q25" 20. (Stats.Summary.quantile xs 0.25)

let test_quantile_interpolation () =
  let xs = [| 0.; 1. |] in
  check_float "interpolated" 0.3 (Stats.Summary.quantile xs 0.3)

let test_quantile_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.quantile: empty sample")
    (fun () -> ignore (Stats.Summary.quantile [||] 0.5))

(* --- Matrix ------------------------------------------------------------ *)

let test_row_normalize () =
  let m = [| 1.; 3.; 0.; 0. |] in
  Stats.Matrix.row_normalize ~cols:2 m;
  check_float "normalized" 0.25 m.(0);
  check_float "zero row becomes uniform" 0.5 m.(2);
  Alcotest.(check bool) "is stochastic" true (Stats.Matrix.is_stochastic ~cols:2 m)

let test_max_abs_diff () =
  let a = [| 1.; 2. |] and b = [| 1.5; 2. |] in
  check_float "diff" 0.5 (Stats.Matrix.max_abs_diff a b)

let test_random_stochastic () =
  let rng = Stats.Rng.create 37 in
  let m = Stats.Matrix.random_stochastic rng 4 6 in
  Alcotest.(check bool) "stochastic" true (Stats.Matrix.is_stochastic ~cols:6 m);
  Alcotest.(check int) "length" 24 (Array.length m)

(* --- QCheck properties -------------------------------------------------- *)

let prop_quantile_in_range =
  QCheck.Test.make ~name:"quantile within sample range" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 40) (float_bound_exclusive 100.)) (float_bound_inclusive 1.))
    (fun (xs, q) ->
      let a = Array.of_list xs in
      let v = Stats.Summary.quantile a q in
      let lo = Array.fold_left Float.min a.(0) a in
      let hi = Array.fold_left Float.max a.(0) a in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [ prop_quantile_in_range ]

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float moments" `Quick test_rng_float_mean;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "uniform" `Quick test_uniform_sampler;
          Alcotest.test_case "uniform invalid" `Quick test_uniform_invalid;
          Alcotest.test_case "exponential" `Quick test_exponential_sampler;
          Alcotest.test_case "exponential invalid" `Quick test_exponential_invalid;
          Alcotest.test_case "pareto" `Quick test_pareto_sampler;
          Alcotest.test_case "bernoulli" `Quick test_bernoulli_sampler;
          Alcotest.test_case "categorical" `Quick test_categorical_sampler;
          Alcotest.test_case "categorical invalid" `Quick test_categorical_invalid;
          Alcotest.test_case "dirichlet-like" `Quick test_dirichlet_like;
        ] );
      ( "summary",
        [
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "invalid" `Quick test_quantile_invalid;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "row normalize" `Quick test_row_normalize;
          Alcotest.test_case "max abs diff" `Quick test_max_abs_diff;
          Alcotest.test_case "random stochastic" `Quick test_random_stochastic;
        ] );
      ("properties", qcheck_cases);
    ]
