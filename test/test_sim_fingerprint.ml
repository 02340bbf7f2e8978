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
let fold_opt_int h = function Some i -> fold_int h (i + 1) | None -> fold_int h 0

let fold_opt_float h = function
  | Some x -> fold (fold_int h 1) x
  | None -> fold_int h 0

let check name pinned computed =
  Alcotest.(check string) name pinned (Printf.sprintf "%016Lx" computed)

let duration = 60.

(* A pin over a loss-free run would not cover the loss-mark path, so
   each run must lose probes (and, with loss pairs, see some). *)
let lossy name (t : Probe.Trace.t) =
  Alcotest.(check bool) (name ^ " loses probes") true (Probe.Trace.losses t > 0)

(* The catalogue's topology config or Internet path kind of [scenario]. *)
let config scenario =
  match (Scenarios.Catalogue.find scenario).source with
  | Topology config -> config ~seed:1 ~duration
  | Path _ -> Alcotest.failf "%s is not a topology scenario" scenario

let kind scenario =
  match (Scenarios.Catalogue.find scenario).source with
  | Path kind -> kind
  | Topology _ -> Alcotest.failf "%s is not an Internet path" scenario

let topology name pinned config =
  let o = Scenarios.Paper_topology.run config in
  lossy name o.Scenarios.Paper_topology.trace;
  if config.Scenarios.Paper_topology.with_loss_pairs then
    Alcotest.(check bool) (name ^ " sees loss pairs") true
      (Array.length o.Scenarios.Paper_topology.loss_pair_samples > 0);
  let h = Probe.Trace.fingerprint o.Scenarios.Paper_topology.trace in
  let h = Array.fold_left fold h o.Scenarios.Paper_topology.loss_pair_samples in
  check name pinned (fold_opt_float h o.Scenarios.Paper_topology.loss_pair_estimate)

let test_strongly () =
  topology "Table II strongly-DCL" "071afb8065395818" (config "table2-strongly")

let test_red_weakly () = topology "weakly-DCL under RED" "b2866c3d05cc2e1c" (config "red-weakly")

let test_loss_pairs () =
  topology "weakly-DCL with loss pairs" "8d1e897952c6f9a8"
    { (config "table3-weakly") with with_loss_pairs = true }

let test_internet () =
  let o = Scenarios.Internet.run ~duration (kind "snu-adsl") in
  lossy "SNU->ADSL" o.Scenarios.Internet.trace;
  check "SNU->ADSL" "4c24e1a610aff09b" (Probe.Trace.fingerprint o.Scenarios.Internet.trace)

(* A pathchar campaign sends real packets through the same queues as
   the cross traffic and the probes, so both its estimate and the
   concurrent probe trace are pinned. *)
let test_pathchar () =
  let o = Scenarios.Internet.run ~duration ~with_pathchar:true (kind "cornell-ufpr") in
  let h = Probe.Trace.fingerprint o.Scenarios.Internet.trace in
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
