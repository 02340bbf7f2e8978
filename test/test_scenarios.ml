(* Integration tests: the paper's experiment setups end-to-end, at
   reduced durations.  These tie the whole stack together: simulator,
   traffic, probing, ground truth, and identification. *)

let check_close eps = Alcotest.(check (float eps))

let test_strongly_preset_structure () =
  let cfg = Scenarios.Presets.strongly_dcl ~duration:60. ~bw3:1e6 () in
  let o = Scenarios.Paper_topology.run cfg in
  let tr = o.Scenarios.Paper_topology.trace in
  Alcotest.(check int) "probe count" 3000 (Probe.Trace.length tr);
  Alcotest.(check bool) "losses occur" true (Probe.Trace.losses tr > 10);
  (* All losses at the bottleneck (hop 3). *)
  let shares = Dcl.Truth.loss_shares tr ~hop_count:5 in
  Alcotest.(check bool) "all losses at L3" true (shares.(3) > 0.99);
  (* Link reports: only L3 drops packets. *)
  let r = o.Scenarios.Paper_topology.reports in
  Alcotest.(check int) "L1 lossless" 0 r.(0).Scenarios.Paper_topology.drops;
  Alcotest.(check bool) "L3 lossy" true (r.(2).Scenarios.Paper_topology.drops > 0);
  check_close 1e-9 "L3 q_max" 0.16 r.(2).Scenarios.Paper_topology.q_max;
  Alcotest.(check bool) "ground truth says strongly dominant" true
    (Dcl.Truth.classify tr ~hop_count:5 = Dcl.Truth.Strong)

let test_strongly_identification () =
  let cfg = Scenarios.Presets.strongly_dcl ~duration:120. ~bw3:1e6 () in
  let o = Scenarios.Paper_topology.run cfg in
  let rng = Stats.Rng.create 7 in
  let r = Dcl.Identify.run ~rng o.Scenarios.Paper_topology.trace in
  Alcotest.(check bool) "SDCL accepts" true
    (r.Dcl.Identify.conclusion = Dcl.Identify.Strongly_dominant);
  (* The Q_max bound must cover the true value and not exceed twice it. *)
  match r.Dcl.Identify.bound with
  | None -> Alcotest.fail "no bound"
  | Some b ->
      let q = (o.Scenarios.Paper_topology.reports.(2)).Scenarios.Paper_topology.q_max in
      Alcotest.(check bool) "bound in [Q, 2Q]" true (b >= q -. 1e-9 && b <= 2. *. q)

let test_weakly_preset_structure () =
  let cfg = Scenarios.Presets.weakly_dcl ~duration:300. () in
  let o = Scenarios.Paper_topology.run cfg in
  let tr = o.Scenarios.Paper_topology.trace in
  let shares = Dcl.Truth.loss_shares tr ~hop_count:5 in
  Alcotest.(check bool) "L1 dominates losses" true (shares.(1) > 0.9);
  Alcotest.(check bool) "L3 loses a little" true (shares.(3) > 0. && shares.(3) < 0.1);
  (* Q_max ordering that the geometry relies on. *)
  let r = o.Scenarios.Paper_topology.reports in
  Alcotest.(check bool) "Q3 much larger than Q1" true
    (r.(2).Scenarios.Paper_topology.q_max > 2.5 *. r.(0).Scenarios.Paper_topology.q_max)

let test_no_dcl_preset_structure () =
  let cfg = Scenarios.Presets.no_dcl ~duration:300. () in
  let o = Scenarios.Paper_topology.run cfg in
  let tr = o.Scenarios.Paper_topology.trace in
  let shares = Dcl.Truth.loss_shares tr ~hop_count:5 in
  Alcotest.(check bool) "both links lose" true (shares.(1) > 0.4 && shares.(3) > 0.1);
  Alcotest.(check bool) "no link reaches the 94% boundary" true
    (shares.(1) < 0.94 && shares.(3) < 0.94);
  Alcotest.(check bool) "classifier agrees" true
    (Dcl.Truth.classify tr ~hop_count:5 = Dcl.Truth.No_dominant)

let test_no_dcl_truth_rejects () =
  let cfg = Scenarios.Presets.no_dcl ~duration:300. () in
  let o = Scenarios.Paper_topology.run cfg in
  let tr = o.Scenarios.Paper_topology.trace in
  let scheme = Dcl.Discretize.of_trace ~m:5 ~prop_delay:Dcl.Discretize.From_trace tr in
  let truth = Dcl.Vqd.of_trace_truth scheme tr in
  Alcotest.(check bool) "ground-truth F rejects WDCL" true
    ((Dcl.Tests.wdcl ~beta:0.06 ~eps:0. truth).Dcl.Tests.verdict = Dcl.Tests.Reject)

let test_loss_pairs_in_preset () =
  let cfg = Scenarios.Presets.strongly_dcl ~duration:120. ~with_loss_pairs:true ~bw3:1e6 () in
  let o = Scenarios.Paper_topology.run cfg in
  match o.Scenarios.Paper_topology.loss_pair_estimate with
  | None -> Alcotest.fail "expected loss pairs"
  | Some est ->
      let q = (o.Scenarios.Paper_topology.reports.(2)).Scenarios.Paper_topology.q_max in
      check_close (0.3 *. q) "loss-pair estimate near Q3" q est

let test_red_preset_runs () =
  let cfg =
    Scenarios.Presets.with_red ~min_th_frac:0.5
      (Scenarios.Presets.strongly_dcl ~duration:60. ~bw3:1e6 ())
  in
  Array.iter
    (fun (lc : Scenarios.Paper_topology.link_config) ->
      match lc.Scenarios.Paper_topology.queue with
      | Netsim.Net.Red_q { min_th; max_th } ->
          Alcotest.(check bool) "thresholds sane" true (min_th > 0. && max_th = 3. *. min_th)
      | Netsim.Net.Droptail_q -> Alcotest.fail "expected RED queues")
    cfg.Scenarios.Paper_topology.backbone;
  let o = Scenarios.Paper_topology.run cfg in
  Alcotest.(check bool) "losses still occur under RED" true
    (Probe.Trace.losses o.Scenarios.Paper_topology.trace > 0)

let test_seed_reproducibility () =
  let run () =
    let o = Scenarios.Paper_topology.run (Scenarios.Presets.strongly_dcl ~duration:30. ~bw3:1e6 ()) in
    let tr = o.Scenarios.Paper_topology.trace in
    (Probe.Trace.losses tr, Probe.Trace.max_delay tr)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-for-bit reproducible" true (a = b)

let test_internet_path_skew_recovery () =
  let o = Scenarios.Internet.run ~duration:120. Scenarios.Internet.Adsl_from_usevilla in
  check_close 3e-6 "skew recovered within 3 ppm" o.Scenarios.Internet.skew_applied
    o.Scenarios.Internet.skew_estimated;
  (* Before repair the skewed trace's delays drift; after repair the
     spread matches the clean trace's within a millisecond. *)
  let spread t = Probe.Trace.max_delay t -. Probe.Trace.min_delay t in
  check_close 1e-3 "repaired spread = true spread"
    (spread o.Scenarios.Internet.trace)
    (spread o.Scenarios.Internet.repaired)

let test_internet_path_structure () =
  let o = Scenarios.Internet.run ~duration:240. Scenarios.Internet.Adsl_from_ufpr in
  let tr = o.Scenarios.Internet.trace in
  Alcotest.(check int) "15-hop path" 15 (Scenarios.Internet.hop_count Scenarios.Internet.Adsl_from_ufpr);
  Alcotest.(check bool) "light loss" true
    (o.Scenarios.Internet.loss_rate > 0. && o.Scenarios.Internet.loss_rate < 0.01);
  let shares = Dcl.Truth.loss_shares tr ~hop_count:15 in
  Alcotest.(check bool) "losses at the access bottleneck" true
    (shares.(o.Scenarios.Internet.bottleneck_hop) > 0.95)

let test_internet_snu_two_bottlenecks () =
  let o = Scenarios.Internet.run ~duration:240. Scenarios.Internet.Adsl_from_snu in
  let tr = o.Scenarios.Internet.trace in
  let shares = Dcl.Truth.loss_shares tr ~hop_count:20 in
  let main = shares.(o.Scenarios.Internet.bottleneck_hop) in
  let second = shares.(Option.get o.Scenarios.Internet.secondary_hop) in
  Alcotest.(check bool) "both congested links lose" true (main > 0.2 && second > 0.2);
  Alcotest.(check bool) "neither dominates at the 94% level" true
    (main < 0.94 && second < 0.94)

(* Every named scenario: unique names, [find] returns the entry, and
   dcl-sim's default run (seed 1, 300 s) loses probes.  The ~0.05%-loss
   Cornell->UFPR and UFPR->ADSL paths lose none in 60 s. *)
let test_catalogue () =
  let all = Scenarios.Catalogue.all in
  let names = List.map (fun (e : Scenarios.Catalogue.entry) -> e.name) all in
  Alcotest.(check int) "names unique" (List.length all)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Catalogue.find: no scenario strongly") (fun () ->
      ignore (Scenarios.Catalogue.find "strongly"));
  List.iter
    (fun (e : Scenarios.Catalogue.entry) ->
      Alcotest.(check bool) (e.name ^ ": find") true (Scenarios.Catalogue.find e.name == e);
      let trace =
        match e.source with
        | Topology config -> (Scenarios.Paper_topology.run (config ~seed:1 ~duration:300.)).trace
        | Path kind -> (Scenarios.Internet.run ~seed:1 ~duration:300. kind).trace
      in
      Alcotest.(check bool) (e.name ^ " loses probes") true (Probe.Trace.losses trace > 0))
    all

let () =
  Alcotest.run "scenarios"
    [
      ( "paper topology",
        [
          Alcotest.test_case "strongly: structure" `Slow test_strongly_preset_structure;
          Alcotest.test_case "strongly: identification" `Slow test_strongly_identification;
          Alcotest.test_case "weakly: structure" `Slow test_weakly_preset_structure;
          Alcotest.test_case "no dcl: structure" `Slow test_no_dcl_preset_structure;
          Alcotest.test_case "no dcl: truth rejects" `Slow test_no_dcl_truth_rejects;
          Alcotest.test_case "loss pairs" `Slow test_loss_pairs_in_preset;
          Alcotest.test_case "red variant" `Slow test_red_preset_runs;
          Alcotest.test_case "reproducibility" `Quick test_seed_reproducibility;
        ] );
      ( "internet",
        [
          Alcotest.test_case "skew recovery" `Slow test_internet_path_skew_recovery;
          Alcotest.test_case "path structure" `Slow test_internet_path_structure;
          Alcotest.test_case "snu two bottlenecks" `Slow test_internet_snu_two_bottlenecks;
        ] );
      ("catalogue", [ Alcotest.test_case "every scenario" `Slow test_catalogue ]);
    ]
