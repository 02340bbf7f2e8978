(* Tests for the extension modules: stationarity screening,
   localization and the bootstrap. *)

(* --- Stationarity --------------------------------------------------------- *)

let mk_record t obs = Probe.Trace.{ send_time = t; obs; truth = None }

let synthetic_trace ~n ~delay_of ~loss_every =
  let records =
    Array.init n (fun i ->
        let t = 0.02 *. float_of_int i in
        if loss_every > 0 && i mod loss_every = 0 then mk_record t Probe.Trace.Lost
        else mk_record t (Probe.Trace.Delay (delay_of i)))
  in
  Probe.Trace.create ~records ~interval:0.02 ~base_delay:0.05 ~hop_count:1

let test_stationarity_accepts_stable () =
  let rng = Stats.Rng.create 7 in
  let trace =
    synthetic_trace ~n:4000
      ~delay_of:(fun _ -> 0.05 +. (0.05 *. Stats.Rng.float rng))
      ~loss_every:50
  in
  let r = Dcl.Stationarity.check trace in
  Alcotest.(check bool) "stationary" true r.Dcl.Stationarity.stationary;
  Alcotest.(check int) "4 blocks" 4 (Array.length r.Dcl.Stationarity.blocks)

let test_stationarity_rejects_delay_shift () =
  let rng = Stats.Rng.create 7 in
  (* The second half's delays double: clear distribution drift. *)
  let trace =
    synthetic_trace ~n:4000
      ~delay_of:(fun i ->
        let base = if i < 2000 then 0.05 else 0.15 in
        base +. (0.02 *. Stats.Rng.float rng))
      ~loss_every:50
  in
  let r = Dcl.Stationarity.check trace in
  Alcotest.(check bool) "not stationary" false r.Dcl.Stationarity.stationary;
  Alcotest.(check bool) "large TV" true (r.Dcl.Stationarity.max_tv > 0.5)

let test_stationarity_rejects_loss_shift () =
  let rng = Stats.Rng.create 7 in
  let records =
    Array.init 4000 (fun i ->
        let t = 0.02 *. float_of_int i in
        let lossy = i >= 2000 in
        if (lossy && i mod 10 = 0) || ((not lossy) && i mod 1000 = 0) then
          mk_record t Probe.Trace.Lost
        else mk_record t (Probe.Trace.Delay (0.05 +. (0.05 *. Stats.Rng.float rng))))
  in
  let trace = Probe.Trace.create ~records ~interval:0.02 ~base_delay:0.05 ~hop_count:1 in
  let r = Dcl.Stationarity.check trace in
  Alcotest.(check bool) "not stationary" false r.Dcl.Stationarity.stationary;
  Alcotest.(check bool) "loss spread visible" true
    (r.Dcl.Stationarity.loss_rate_spread > 0.05)

let test_stationarity_invalid () =
  let trace = synthetic_trace ~n:4 ~delay_of:(fun _ -> 0.1) ~loss_every:0 in
  Alcotest.check_raises "too short" (Invalid_argument "Stationarity.check: trace too short")
    (fun () -> ignore (Dcl.Stationarity.check trace))

(* --- Locate ------------------------------------------------------------------- *)

let mk_prefix hops conclusion =
  Dcl.Locate.{ hops; conclusion; loss_rate = 0.01 }

let test_locate_clean_case () =
  let prefixes =
    [
      mk_prefix 1 None;
      mk_prefix 2 (Some Dcl.Identify.No_dominant);
      mk_prefix 3 (Some Dcl.Identify.Strongly_dominant);
      mk_prefix 4 (Some Dcl.Identify.Weakly_dominant);
      mk_prefix 5 (Some Dcl.Identify.Strongly_dominant);
    ]
  in
  Alcotest.(check (option int)) "hop 3" (Some 3) (Dcl.Locate.pinpoint prefixes)

let test_locate_order_independent () =
  let prefixes =
    [
      mk_prefix 3 (Some Dcl.Identify.Strongly_dominant);
      mk_prefix 1 None;
      mk_prefix 2 (Some Dcl.Identify.No_dominant);
    ]
  in
  Alcotest.(check (option int)) "unsorted input" (Some 3) (Dcl.Locate.pinpoint prefixes)

let test_locate_no_dominant () =
  let prefixes =
    [ mk_prefix 1 (Some Dcl.Identify.No_dominant); mk_prefix 2 (Some Dcl.Identify.No_dominant) ]
  in
  Alcotest.(check (option int)) "none" None (Dcl.Locate.pinpoint prefixes)

let test_locate_inconsistent_suffix () =
  (* A dominant prefix followed by a non-dominant longer prefix is
     inconsistent: the dominant suffix must be unbroken. *)
  let prefixes =
    [
      mk_prefix 1 (Some Dcl.Identify.Strongly_dominant);
      mk_prefix 2 (Some Dcl.Identify.No_dominant);
      mk_prefix 3 (Some Dcl.Identify.Strongly_dominant);
    ]
  in
  Alcotest.(check (option int)) "restarts at 3" (Some 3) (Dcl.Locate.pinpoint prefixes)

let test_locate_empty () =
  Alcotest.(check (option int)) "empty input" None (Dcl.Locate.pinpoint [])

(* --- Bootstrap ---------------------------------------------------------------- *)

(* A synthetic trace whose regime changes halfway: first half losses at
   a low symbol cluster, second half losses split low/high. *)
let two_regime_trace () =
  let rng = Stats.Rng.create 13 in
  let n = 30_000 in
  let records =
    Array.init n (fun i ->
        let t = 0.02 *. float_of_int i in
        let second_half = i >= n / 2 in
        let u = Stats.Rng.float rng in
        if u < 0.01 then
          (* a loss: neighbors below determine its context *)
          mk_record t Probe.Trace.Lost
        else
          let near_loss = u < 0.03 in
          let delay =
            if near_loss then if second_half && u < 0.02 then 0.45 else 0.15
            else 0.05 +. (0.04 *. Stats.Rng.float rng)
          in
          mk_record t (Probe.Trace.Delay delay))
  in
  Probe.Trace.create ~records ~interval:0.02 ~base_delay:0.05 ~hop_count:1

(* Its F statistic is stable and the bootstrap must bracket it. *)
let test_bootstrap_brackets_point () =
  let trace = two_regime_trace () in
  let trace = Probe.Trace.sub trace ~pos:0 ~len:10_000 in
  let rng = Stats.Rng.create 9 in
  let iv = Dcl.Bootstrap.f_statistic ~replicates:20 ~rng trace in
  Alcotest.(check bool) "finite interval" true (Float.is_finite iv.Dcl.Bootstrap.lo);
  Alcotest.(check bool) "ordered" true (iv.Dcl.Bootstrap.lo <= iv.Dcl.Bootstrap.hi);
  Alcotest.(check bool) "point within a widened interval" true
    (iv.Dcl.Bootstrap.point >= iv.Dcl.Bootstrap.lo -. 0.1
    && iv.Dcl.Bootstrap.point <= iv.Dcl.Bootstrap.hi +. 0.1);
  Alcotest.(check bool) "accept fraction is a probability" true
    (iv.Dcl.Bootstrap.accept_fraction >= 0. && iv.Dcl.Bootstrap.accept_fraction <= 1.)

let test_bootstrap_invalid () =
  let trace = two_regime_trace () in
  let rng = Stats.Rng.create 1 in
  Alcotest.check_raises "replicates" (Invalid_argument "Bootstrap.f_statistic: replicates <= 0")
    (fun () -> ignore (Dcl.Bootstrap.f_statistic ~replicates:0 ~rng trace))

let () =
  Alcotest.run "extensions"
    [
      ( "stationarity",
        [
          Alcotest.test_case "accepts stable" `Quick test_stationarity_accepts_stable;
          Alcotest.test_case "rejects delay shift" `Quick test_stationarity_rejects_delay_shift;
          Alcotest.test_case "rejects loss shift" `Quick test_stationarity_rejects_loss_shift;
          Alcotest.test_case "invalid" `Quick test_stationarity_invalid;
        ] );
      ( "locate",
        [
          Alcotest.test_case "clean case" `Quick test_locate_clean_case;
          Alcotest.test_case "order independent" `Quick test_locate_order_independent;
          Alcotest.test_case "no dominant" `Quick test_locate_no_dominant;
          Alcotest.test_case "inconsistent suffix" `Quick test_locate_inconsistent_suffix;
          Alcotest.test_case "empty" `Quick test_locate_empty;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "brackets the point" `Slow test_bootstrap_brackets_point;
          Alcotest.test_case "invalid" `Quick test_bootstrap_invalid;
        ] );
    ]
