(* Tests for the extension modules: the generalized delay-factor tests,
   stationarity screening, localization, ns trace files, and the
   bootstrap. *)

open Netsim

let check_close eps = Alcotest.(check (float eps))

(* --- Generalized delay-factor tests -------------------------------------- *)

let scheme = Dcl.Discretize.of_range ~m:10 ~lo:0. ~hi:1.

let test_delay_factor_indexing () =
  (* Mass at symbol 3 (1-based): with x = 1 the tested symbol is 6;
     with x = 2 it is ceil(1.5 * 3) = 5; with x = 0.5 it is 9. *)
  let pmf = Array.make 10 0. in
  pmf.(2) <- 1.;
  let v = Dcl.Vqd.of_pmf scheme pmf in
  Alcotest.(check int) "x=1" 6 (Dcl.Tests.sdcl v).Dcl.Tests.two_d_star;
  Alcotest.(check int) "x=2" 5 (Dcl.Tests.sdcl ~delay_factor:2. v).Dcl.Tests.two_d_star;
  Alcotest.(check int) "x=0.5" 9 (Dcl.Tests.sdcl ~delay_factor:0.5 v).Dcl.Tests.two_d_star

let test_delay_factor_strictness () =
  (* A distribution with its tail just above 2 d* is accepted under a
     lenient x < 1 but rejected under the default x = 1 and stricter
     x > 1. *)
  let pmf = Array.make 10 0. in
  pmf.(2) <- 0.8;
  (* d* = 3 (1-based); tail at symbol 7 > 6 = 2 d*. *)
  pmf.(6) <- 0.2;
  let v = Dcl.Vqd.of_pmf scheme pmf in
  Alcotest.(check bool) "x=1 rejects" true
    ((Dcl.Tests.sdcl v).Dcl.Tests.verdict = Dcl.Tests.Reject);
  Alcotest.(check bool) "x=0.5 accepts (tests symbol 9)" true
    ((Dcl.Tests.sdcl ~delay_factor:0.5 v).Dcl.Tests.verdict = Dcl.Tests.Accept);
  Alcotest.(check bool) "x=2 rejects too" true
    ((Dcl.Tests.sdcl ~delay_factor:2. v).Dcl.Tests.verdict = Dcl.Tests.Reject)

let test_delay_factor_invalid () =
  let v = Dcl.Vqd.of_pmf scheme (Array.make 10 0.1) in
  Alcotest.check_raises "x <= 0" (Invalid_argument "Tests: delay_factor must be positive")
    (fun () -> ignore (Dcl.Tests.sdcl ~delay_factor:0. v))

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

(* --- Tracefile -------------------------------------------------------------- *)

let test_tracefile_events_and_roundtrip () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~id:0 ~src:0 ~dst:1 ~bandwidth:1e6 ~delay:0.001 ~capacity:2000
      ~policy:Link.Droptail ()
  in
  let tf = Tracefile.create () in
  Tracefile.attach tf sim link;
  Sim.at sim 0. (fun () ->
      for i = 0 to 2 do
        Link.offer link
          (Packet.make ~id:i ~flow:9 ~src:0 ~dst:1 ~size:1000 ~kind:Packet.Udp ~seq:i
             ~sent_at:0. ())
      done);
  Sim.run sim;
  let events = Tracefile.events tf in
  (* 2 accepted (enqueue+dequeue+receive each) + 1 drop = 7 events. *)
  Alcotest.(check int) "event count" 7 (Array.length events);
  let count k =
    Array.fold_left (fun n e -> if e.Tracefile.kind = k then n + 1 else n) 0 events
  in
  Alcotest.(check int) "enqueues" 2 (count Tracefile.Enqueue);
  Alcotest.(check int) "dequeues" 2 (count Tracefile.Dequeue);
  Alcotest.(check int) "receives" 2 (count Tracefile.Receive);
  Alcotest.(check int) "drops" 1 (count Tracefile.Drop);
  Alcotest.(check (list (pair int int))) "drops per flow" [ (9, 1) ]
    (Tracefile.drops_per_flow events);
  (* Save / load roundtrip. *)
  let file = Filename.temp_file "nstrace" ".tr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Tracefile.save tf file;
      let loaded = Result.get_ok (Tracefile.load file) in
      Alcotest.(check int) "loaded count" (Array.length events) (Array.length loaded);
      Array.iteri
        (fun i e ->
          let l = loaded.(i) in
          Alcotest.(check bool) "kind" true (e.Tracefile.kind = l.Tracefile.kind);
          Alcotest.(check int) "packet id" e.Tracefile.packet_id l.Tracefile.packet_id;
          check_close 1e-5 "time" e.Tracefile.time l.Tracefile.time)
        events)

let test_tracefile_ordering () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~id:0 ~src:0 ~dst:1 ~bandwidth:1e6 ~delay:0.001 ~capacity:100_000
      ~policy:Link.Droptail ()
  in
  let tf = Tracefile.create () in
  Tracefile.attach tf sim link;
  Sim.at sim 0. (fun () ->
      Link.offer link
        (Packet.make ~id:0 ~flow:0 ~src:0 ~dst:1 ~size:1000 ~kind:Packet.Udp ~seq:0
           ~sent_at:0. ()));
  Sim.run sim;
  let events = Tracefile.events tf in
  let kinds = Array.to_list (Array.map (fun e -> e.Tracefile.kind) events) in
  Alcotest.(check bool) "enqueue, dequeue, receive in order" true
    (kinds = [ Tracefile.Enqueue; Tracefile.Dequeue; Tracefile.Receive ])

let check_tracefile_rejects name contents ~line ~reason =
  let file = Filename.temp_file "nsbad" ".tr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_text file (fun oc -> output_string oc contents);
      match Tracefile.load file with
      | Ok _ -> Alcotest.failf "%s: malformed trace loaded" name
      | Error msg ->
          Alcotest.(check string)
            name
            (Printf.sprintf "%s:%d: Tracefile.load: %s" file line reason)
            msg)

let test_tracefile_load_rejects_bad_input () =
  let good = "+ 0.100000 0 1 cbr 1000 ---- 9 0.0 1.0 0 0\n" in
  check_tracefile_rejects "nan time"
    (good ^ "- nan 0 1 cbr 1000 ---- 9 0.0 1.0 0 0\n")
    ~line:2 ~reason:"non-finite time \"nan\"";
  check_tracefile_rejects "inf node"
    (good ^ "r 0.200000 0 1 cbr 1000 ---- 9 inf 1.0 0 0\n")
    ~line:2 ~reason:"non-finite src \"inf\"";
  check_tracefile_rejects "empty event field"
    (good ^ " 0.200000 0 1 cbr 1000 ---- 9 0.0 1.0 0 0\n")
    ~line:2 ~reason:"bad event \"\"";
  check_tracefile_rejects "truncated line" (good ^ "d 0.200000 0 1 cbr\n") ~line:2
    ~reason:"malformed line"

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
    (fun () -> ignore (Dcl.Bootstrap.f_statistic ~replicates:0 ~rng trace));
  Alcotest.check_raises "confidence"
    (Invalid_argument "Bootstrap.f_statistic: confidence must be in (0, 1)") (fun () ->
      ignore (Dcl.Bootstrap.f_statistic ~confidence:1.5 ~rng trace))

let () =
  Alcotest.run "extensions"
    [
      ( "delay factor",
        [
          Alcotest.test_case "indexing" `Quick test_delay_factor_indexing;
          Alcotest.test_case "strictness" `Quick test_delay_factor_strictness;
          Alcotest.test_case "invalid" `Quick test_delay_factor_invalid;
        ] );
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
      ( "tracefile",
        [
          Alcotest.test_case "events and roundtrip" `Quick test_tracefile_events_and_roundtrip;
          Alcotest.test_case "ordering" `Quick test_tracefile_ordering;
          Alcotest.test_case "load rejects bad input" `Quick
            test_tracefile_load_rejects_bad_input;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "brackets the point" `Slow test_bootstrap_brackets_point;
          Alcotest.test_case "invalid" `Quick test_bootstrap_invalid;
        ] );
    ]
