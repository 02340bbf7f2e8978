(* Pinned bit-level fingerprints of the network simulator.

   Every figure below is an order-sensitive fold of the IEEE bit
   patterns ([Int64.bits_of_float]) of a short simulated run: each
   probe record's send time, observation, virtual queuing delay,
   per-hop queuing and loss hop.  The order in which the event engine
   fires simultaneous events decides which packet a probe sees in a
   queue, so a change to event ordering (the queue's tie rule, or when
   a periodic stream schedules its launches) moves at least one of
   these pins even where every test of the simulator's behaviour still
   passes.

   To re-derive after an intentional change to simulated behaviour, run
   this test: a failure message prints the computed fingerprint next to
   the pinned one. *)

let fold h x = Int64.add (Int64.mul h 1000003L) (Int64.bits_of_float x)
let fold_int h i = Int64.add (Int64.mul h 31L) (Int64.of_int i)
let fold_array h a = Array.fold_left fold h a
let fold_opt_int h = function Some i -> fold_int h (i + 1) | None -> fold_int h 0

let fold_opt_float h = function
  | Some x -> fold (fold_int h 1) x
  | None -> fold_int h 0

let fold_record h (r : Probe.Trace.record) =
  let h = fold h r.Probe.Trace.send_time in
  let h =
    match r.Probe.Trace.obs with
    | Probe.Trace.Lost -> fold_int h 0
    | Probe.Trace.Delay d -> fold (fold_int h 1) d
  in
  match r.Probe.Trace.truth with
  | None -> fold_int h 0
  | Some t ->
      let h = fold (fold_int h 1) t.Probe.Trace.virtual_queuing_delay in
      let h = fold_array h t.Probe.Trace.hop_queuing in
      fold_opt_int h t.Probe.Trace.loss_hop

let fold_trace h (t : Probe.Trace.t) =
  let h = fold_int h (Probe.Trace.length t) in
  Array.fold_left fold_record h t.Probe.Trace.records

let check name pinned computed =
  Alcotest.(check string) name pinned (Printf.sprintf "%016Lx" computed)

let duration = 60.

(* A pin over a loss-free run would not cover the loss-mark path, so
   each run must lose probes (and, with loss pairs, see some). *)
let lossy name (t : Probe.Trace.t) =
  Alcotest.(check bool) (name ^ " loses probes") true (Probe.Trace.losses t > 0)

let topology name pinned config =
  let o = Scenarios.Paper_topology.run config in
  lossy name o.Scenarios.Paper_topology.trace;
  if config.Scenarios.Paper_topology.with_loss_pairs then
    Alcotest.(check bool) (name ^ " sees loss pairs") true
      (Array.length o.Scenarios.Paper_topology.loss_pair_samples > 0);
  let h = fold_trace 0L o.Scenarios.Paper_topology.trace in
  let h = fold_array h o.Scenarios.Paper_topology.loss_pair_samples in
  check name pinned (fold_opt_float h o.Scenarios.Paper_topology.loss_pair_estimate)

let test_strongly () =
  topology "Table II strongly-DCL" "071afb8065395818"
    (Scenarios.Presets.strongly_dcl ~duration
       ~bw3:(List.hd Scenarios.Presets.strongly_dcl_sweep)
       ())

let test_red_weakly () =
  topology "weakly-DCL under RED" "b2866c3d05cc2e1c"
    (Scenarios.Presets.with_red ~min_th_frac:0.2 (Scenarios.Presets.weakly_dcl ~duration ()))

let test_loss_pairs () =
  topology "weakly-DCL with loss pairs" "8d1e897952c6f9a8"
    (Scenarios.Presets.weakly_dcl ~duration ~with_loss_pairs:true ())

let test_internet () =
  let o = Scenarios.Internet.run ~duration Scenarios.Internet.Adsl_from_snu in
  lossy "SNU->ADSL" o.Scenarios.Internet.trace;
  check "SNU->ADSL" "4c24e1a610aff09b" (fold_trace 0L o.Scenarios.Internet.trace)

(* A pathchar campaign sends real packets through the same queues as
   the cross traffic and the probes, so both its estimate and the
   concurrent probe trace are pinned. *)
let test_pathchar () =
  let o =
    Scenarios.Internet.run ~duration ~with_pathchar:true Scenarios.Internet.Ethernet_ufpr
  in
  let h = fold_trace 0L o.Scenarios.Internet.trace in
  let h =
    match o.Scenarios.Internet.pathchar with
    | None -> Alcotest.fail "no pathchar estimate"
    | Some r ->
        Alcotest.(check bool) "pathchar names a narrow hop" true
          (r.Pathchar.narrow_hop <> None);
        let h =
          Array.fold_left
            (fun h (hop : Pathchar.hop) ->
              let h = fold_int (fold_int h hop.Pathchar.index) hop.Pathchar.replies in
              let h = fold_opt_float h hop.Pathchar.slope in
              let h = fold_opt_float h hop.Pathchar.capacity in
              fold_opt_float h hop.Pathchar.latency)
            h r.Pathchar.hops
        in
        fold_opt_int h r.Pathchar.narrow_hop
  in
  check "Cornell->UFPR with pathchar" "2f21668753db9e2b" h

let () =
  Alcotest.run "sim_fingerprint"
    [
      ( "netsim fingerprint",
        [
          Alcotest.test_case "strongly 60 s" `Quick test_strongly;
          Alcotest.test_case "RED weakly 60 s" `Quick test_red_weakly;
          Alcotest.test_case "loss pairs 60 s" `Quick test_loss_pairs;
          Alcotest.test_case "SNU->ADSL 60 s" `Quick test_internet;
          Alcotest.test_case "pathchar 60 s" `Quick test_pathchar;
        ] );
    ]
