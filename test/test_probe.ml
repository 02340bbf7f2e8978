(* Tests for shadow probes, traces, the prober, and the loss-pair
   baseline. *)

open Netsim

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

let chain ?(bandwidth = 1e6) ?(capacity = 10_000) () =
  let sim = Sim.create ~seed:11 () in
  let net = Net.create sim in
  let a = Net.add_node net "a" and b = Net.add_node net "b" and c = Net.add_node net "c" in
  let l1, _ = Net.add_duplex net ~a ~b ~bandwidth ~delay:0.005 ~capacity:1_000_000 () in
  let l2, _ = Net.add_duplex net ~a:b ~b:c ~bandwidth ~delay:0.005 ~capacity () in
  Net.compute_routes net;
  (sim, net, a, b, c, l1, l2)

(* --- Shadow ------------------------------------------------------------ *)

let test_shadow_idle_path () =
  let sim, net, a, _, c, _, _ = chain () in
  let path = Net.path_links net ~src:a ~dst:c in
  let result = ref None in
  Sim.at sim 1. (fun () ->
      Probe.Shadow.launch net ~path ~size:10 ~rng:(Stats.Rng.create 1) ~k:(fun r ->
          result := Some r));
  Sim.run sim;
  match !result with
  | None -> Alcotest.fail "shadow did not complete"
  | Some r ->
      Alcotest.(check (option int)) "no loss" None r.Probe.Shadow.loss_hop;
      check_float "zero queuing" 0. (Probe.Shadow.total_queuing r);
      (* base = 2 x (prop 5 ms + 80 us transmission of 10 B at 1 Mb/s) *)
      check_float "base delay" 0.01016 r.Probe.Shadow.base_delay;
      check_float "end-end = base" r.Probe.Shadow.base_delay
        (Probe.Shadow.end_to_end_delay r)

let test_shadow_sees_queue () =
  let sim, net, a, b, c, _, l2 = chain () in
  (* Two 1000-byte packets in l2's queue when the shadow arrives: the
     shadow launched at t=0.99 reaches l2 at 0.99 + 80us + 5ms, while
     the packets (injected at 0.99) still occupy it. *)
  Sim.at sim 0.99 (fun () ->
      for i = 0 to 1 do
        Net.inject net
          (Packet.make ~id:i ~flow:0 ~src:b ~dst:c ~size:1000 ~kind:Packet.Udp ~seq:i
             ~sent_at:0.99 ())
      done);
  ignore l2;
  let path = Net.path_links net ~src:a ~dst:c in
  let result = ref None in
  Sim.at sim 0.99 (fun () ->
      Probe.Shadow.launch net ~path ~size:10 ~rng:(Stats.Rng.create 1) ~k:(fun r ->
          result := Some r));
  Sim.run sim;
  match !result with
  | None -> Alcotest.fail "no result"
  | Some r ->
      Alcotest.(check (option int)) "not lost" None r.Probe.Shadow.loss_hop;
      Alcotest.(check bool) "queuing observed at hop 1" true (r.Probe.Shadow.hop_queuing.(1) > 0.001)

let test_shadow_loss_mark () =
  let sim, net, a, _, c, _, l2 = chain ~capacity:2000 () in
  (* Fill l2 (waiting room full for the MTU rule). *)
  Sim.at sim 0.9999 (fun () ->
      for i = 0 to 2 do
        Net.inject net
          (Packet.make ~id:i ~flow:0 ~src:(Link.src l2) ~dst:c ~size:1000
             ~kind:Packet.Udp ~seq:i ~sent_at:0.9999 ())
      done);
  let path = Net.path_links net ~src:a ~dst:c in
  let result = ref None in
  (* Arrive at l2 just after it fills: launch so hop-1 arrival ~1.0001. *)
  Sim.at sim (1.0001 -. 0.005 -. 0.00008) (fun () ->
      Probe.Shadow.launch net ~path ~size:10 ~rng:(Stats.Rng.create 1) ~k:(fun r ->
          result := Some r));
  Sim.run sim;
  match !result with
  | None -> Alcotest.fail "no result"
  | Some r ->
      Alcotest.(check (option int)) "lost at hop 1" (Some 1) r.Probe.Shadow.loss_hop;
      check_float "records the full-queue drain time Q_k"
        (Link.max_queuing_delay l2) r.Probe.Shadow.hop_queuing.(1)

let test_shadow_transparent () =
  (* Shadows must not affect link counters or queues. *)
  let sim, net, a, _, c, _, l2 = chain () in
  let path = Net.path_links net ~src:a ~dst:c in
  for i = 0 to 99 do
    Sim.at sim (0.01 *. float_of_int i) (fun () ->
        Probe.Shadow.launch net ~path ~size:10 ~rng:(Stats.Rng.create 1) ~k:(fun _ -> ()))
  done;
  Sim.run sim;
  Alcotest.(check int) "no arrivals recorded" 0 (Link.arrivals l2);
  Alcotest.(check int) "no drops recorded" 0 (Link.drops l2)

let test_shadow_empty_path () =
  let _, net, _, _, _, _, _ = chain () in
  Alcotest.check_raises "empty path" (Invalid_argument "Shadow.launch: empty path")
    (fun () ->
      Probe.Shadow.launch net ~path:[] ~size:10 ~rng:(Stats.Rng.create 1) ~k:(fun _ -> ()))

(* --- Trace ------------------------------------------------------------- *)

let mk_record ?(t = 0.) obs truth = Probe.Trace.{ send_time = t; obs; truth }

let sample_trace () =
  let records =
    [|
      mk_record ~t:0. (Probe.Trace.Delay 0.10) None;
      mk_record ~t:0.02 Probe.Trace.Lost
        (Some
           Probe.Trace.
             { virtual_queuing_delay = 0.08; hop_queuing = [| 0.; 0.08 |]; loss_hop = Some 1 });
      mk_record ~t:0.04 (Probe.Trace.Delay 0.15) None;
      mk_record ~t:0.06 (Probe.Trace.Delay 0.12) None;
    |]
  in
  Probe.Trace.create ~records ~interval:0.02 ~base_delay:0.05 ~hop_count:2

let test_trace_stats () =
  let t = sample_trace () in
  Alcotest.(check int) "length" 4 (Probe.Trace.length t);
  Alcotest.(check int) "losses" 1 (Probe.Trace.losses t);
  check_float "loss rate" 0.25 (Probe.Trace.loss_rate t);
  check_float "min delay" 0.10 (Probe.Trace.min_delay t);
  check_float "max delay" 0.15 (Probe.Trace.max_delay t);
  check_float "duration" 0.08 (Probe.Trace.duration t);
  Alcotest.(check int) "observed delays" 3 (Array.length (Probe.Trace.observed_delays t))

let test_trace_truth_accessors () =
  let t = sample_trace () in
  let v = Probe.Trace.truth_virtual_delays t in
  Alcotest.(check int) "one loss-marked probe" 1 (Array.length v);
  check_float "virtual queuing delay" 0.08 v.(0);
  check_float "loss share at hop 1" 1. (Probe.Trace.truth_loss_share t 1);
  check_float "loss share at hop 0" 0. (Probe.Trace.truth_loss_share t 0)

let test_trace_sub () =
  let t = sample_trace () in
  let s = Probe.Trace.sub t ~pos:1 ~len:2 in
  Alcotest.(check int) "sub length" 2 (Probe.Trace.length s);
  Alcotest.(check int) "sub losses" 1 (Probe.Trace.losses s);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Trace.sub: out of bounds")
    (fun () -> ignore (Probe.Trace.sub t ~pos:3 ~len:2))

let test_trace_random_segment () =
  let t = sample_trace () in
  let rng = Stats.Rng.create 3 in
  for _ = 1 to 20 do
    let s = Probe.Trace.random_segment rng t ~duration:0.04 in
    Alcotest.(check int) "segment size" 2 (Probe.Trace.length s)
  done

let test_trace_save_load_roundtrip () =
  let t = sample_trace () in
  let file = Filename.temp_file "dcl" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Probe.Trace.save t file;
      let t' = Result.get_ok (Probe.Trace.load file) in
      Alcotest.(check int) "length" (Probe.Trace.length t) (Probe.Trace.length t');
      check_float "interval" t.Probe.Trace.interval t'.Probe.Trace.interval;
      check_close 1e-8 "base" t.Probe.Trace.base_delay t'.Probe.Trace.base_delay;
      Alcotest.(check int) "hops" t.Probe.Trace.hop_count t'.Probe.Trace.hop_count;
      Array.iteri
        (fun i (r : Probe.Trace.record) ->
          let r' = t'.Probe.Trace.records.(i) in
          (match (r.obs, r'.obs) with
          | Probe.Trace.Lost, Probe.Trace.Lost -> ()
          | Probe.Trace.Delay a, Probe.Trace.Delay b -> check_close 1e-8 "delay" a b
          | _ -> Alcotest.fail "observation mismatch");
          match (r.truth, r'.truth) with
          | None, None -> ()
          | Some a, Some b ->
              check_close 1e-8 "vqd" a.Probe.Trace.virtual_queuing_delay
                b.Probe.Trace.virtual_queuing_delay;
              Alcotest.(check (option int)) "loss hop" a.Probe.Trace.loss_hop
                b.Probe.Trace.loss_hop
          | _ -> Alcotest.fail "truth mismatch")
        t.Probe.Trace.records)

(* Malformed or non-finite input is rejected with the file name and the
   1-based line of the offending record. *)
let check_load_rejects name contents ~line ~reason =
  let file = Filename.temp_file "dclbad" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_text file (fun oc -> output_string oc contents);
      match Probe.Trace.load file with
      | Ok _ -> Alcotest.failf "%s: malformed trace loaded" name
      | Error msg ->
          Alcotest.(check string)
            name
            (Printf.sprintf "%s:%d: Trace.load: %s" file line reason)
            msg)

let test_trace_load_rejects_bad_input () =
  let header = "dcltrace 1 0.020000000 0.010000000 1\n" in
  check_load_rejects "nan delay"
    (header ^ "0.000000 0.015000000\n0.020000 nan\n0.040000 L\n")
    ~line:3 ~reason:"non-finite delay \"nan\"";
  check_load_rejects "inf interval"
    "dcltrace 1 inf 0.010000000 1\n0.000000 0.015000000\n" ~line:1
    ~reason:"non-finite interval \"inf\"";
  check_load_rejects "truncated record"
    (header ^ "0.000000 0.015000000\n0.020000\n") ~line:3 ~reason:"bad record";
  check_load_rejects "truncated truth"
    (header ^ "0.000000 L T 0.001000000\n") ~line:2 ~reason:"bad record"

(* Property: save/load roundtrips arbitrary traces. *)
let trace_gen =
  QCheck.Gen.(
    let record_gen =
      pair (float_bound_inclusive 1.) (option (float_range 0.001 0.5)) >|= fun (t, d) ->
      match d with
      | Some d -> mk_record ~t (Probe.Trace.Delay d) None
      | None ->
          mk_record ~t Probe.Trace.Lost
            (Some
               Probe.Trace.
                 { virtual_queuing_delay = 0.1; hop_queuing = [| 0.1 |]; loss_hop = Some 0 })
    in
    list_size (int_range 1 50) record_gen >|= fun rs ->
    Probe.Trace.create ~records:(Array.of_list rs) ~interval:0.02 ~base_delay:0.01
      ~hop_count:1)

let prop_trace_roundtrip =
  QCheck.Test.make ~name:"trace save/load roundtrip" ~count:50
    (QCheck.make trace_gen) (fun t ->
      let file = Filename.temp_file "dclq" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Probe.Trace.save t file;
          let t' = Result.get_ok (Probe.Trace.load file) in
          Probe.Trace.length t = Probe.Trace.length t'
          && Probe.Trace.losses t = Probe.Trace.losses t'))

(* --- Prober ------------------------------------------------------------ *)

let test_prober_count_and_order () =
  let sim, net, a, _, c, _, _ = chain () in
  let prober = Probe.Prober.create net ~src:a ~dst:c ~interval:0.02 () in
  Probe.Prober.start prober ~at:1. ~until:3.;
  Sim.run_until sim 4.;
  let trace = Probe.Prober.trace prober in
  Alcotest.(check int) "100 probes" 100 (Probe.Trace.length trace);
  check_float "first send time" 1. trace.Probe.Trace.records.(0).Probe.Trace.send_time;
  Array.iteri
    (fun i (r : Probe.Trace.record) ->
      check_close 1e-9 "regular spacing"
        (1. +. (0.02 *. float_of_int i))
        r.Probe.Trace.send_time)
    trace.Probe.Trace.records

let test_prober_idle_path_delays () =
  let sim, net, a, _, c, _, _ = chain () in
  let prober = Probe.Prober.create net ~src:a ~dst:c ~interval:0.02 () in
  Probe.Prober.start prober ~at:0. ~until:1.;
  Sim.run_until sim 2.;
  let trace = Probe.Prober.trace prober in
  Alcotest.(check int) "no losses" 0 (Probe.Trace.losses trace);
  check_float "all delays equal base" trace.Probe.Trace.base_delay
    (Probe.Trace.min_delay trace);
  check_float "all delays equal base" trace.Probe.Trace.base_delay
    (Probe.Trace.max_delay trace)

let test_prober_invalid_window () =
  let _, net, a, _, c, _, _ = chain () in
  let prober = Probe.Prober.create net ~src:a ~dst:c ~interval:0.02 () in
  Alcotest.check_raises "empty window" (Invalid_argument "Prober.start: empty probing window")
    (fun () -> Probe.Prober.start prober ~at:2. ~until:1.)

(* --- Loss pairs --------------------------------------------------------- *)

let test_losspair_accounting () =
  let sim, net, a, _, c, _, l2 = chain ~capacity:3000 () in
  (* Saturating CBR makes the bottleneck drop. *)
  let src = Traffic.Udp.cbr net ~src:(Link.src l2) ~dst:c ~rate:1.4e6 ~pkt_size:1000 in
  Traffic.Udp.start src;
  let lp = Probe.Losspair.create net ~src:a ~dst:c ~pair_interval:0.04 () in
  Probe.Losspair.start lp ~at:1. ~until:21.;
  Sim.run_until sim 25.;
  Alcotest.(check int) "pairs sent" 500 (Probe.Losspair.pairs_sent lp);
  let samples = Probe.Losspair.samples lp in
  Alcotest.(check int) "one sample per loss pair" (Probe.Losspair.loss_pairs lp)
    (Array.length samples);
  Alcotest.(check bool) "pair outcomes within bounds" true
    (Probe.Losspair.loss_pairs lp + Probe.Losspair.both_lost lp
    <= Probe.Losspair.pairs_sent lp)

let test_losspair_estimate_near_qmax () =
  (* On-off overload: the queue fills during bursts and drains between
     them, so loss pairs straddle full-queue instants. *)
  let sim, net, a, _, c, _, l2 = chain ~capacity:10_000 () in
  let src =
    Traffic.Udp.onoff net ~src:(Link.src l2) ~dst:c ~rate:2e6 ~pkt_size:1000 ~mean_on:0.4
      ~mean_off:0.4
  in
  Traffic.Udp.start src;
  let lp = Probe.Losspair.create net ~src:a ~dst:c ~gap:0.004 ~pair_interval:0.04 () in
  Probe.Losspair.start lp ~at:1. ~until:121.;
  Sim.run_until sim 125.;
  match Probe.Losspair.estimate_max_queuing_delay lp with
  | None -> Alcotest.fail "no loss pairs observed"
  | Some est ->
      check_close 0.02 "estimate near Q_max of the only congested link"
        (Link.max_queuing_delay l2) est

let test_losspair_no_losses () =
  let sim, net, a, _, c, _, _ = chain () in
  let lp = Probe.Losspair.create net ~src:a ~dst:c ~pair_interval:0.04 () in
  Probe.Losspair.start lp ~at:0. ~until:2.;
  Sim.run_until sim 3.;
  Alcotest.(check int) "no loss pairs on idle path" 0 (Probe.Losspair.loss_pairs lp);
  Alcotest.(check (option (float 0.))) "no estimate" None
    (Probe.Losspair.estimate_max_queuing_delay lp)

(* A 1,000 s window is 50,000 probes (25,000 pairs); a stream that
   scheduled its window up front would hold them all in the event
   queue at once.  One pending launch per stream keeps the high-water
   mark at the launch plus the shadows in flight. *)
let queue_depth_max start =
  let sim, net, a, _, c, _, _ = chain () in
  let depth = Obs.Gauge.make "dcl_sim_queue_depth_max" in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      Obs.Gauge.set depth 0.;
      start net ~src:a ~dst:c;
      Sim.run_until sim 1002.;
      Obs.Gauge.value depth)

let test_prober_bounded_queue () =
  let depth =
    queue_depth_max (fun net ~src ~dst ->
        let p = Probe.Prober.create net ~src ~dst ~interval:0.02 () in
        Probe.Prober.start p ~at:1. ~until:1001.)
  in
  Alcotest.(check bool) (Printf.sprintf "queue depth max %.0f <= 4" depth) true (depth <= 4.)

let test_losspair_bounded_queue () =
  let depth =
    queue_depth_max (fun net ~src ~dst ->
        let lp = Probe.Losspair.create net ~src ~dst ~pair_interval:0.04 () in
        Probe.Losspair.start lp ~at:1. ~until:1001.)
  in
  Alcotest.(check bool) (Printf.sprintf "queue depth max %.0f <= 4" depth) true (depth <= 4.)

let qcheck_cases = List.map (fun t -> QCheck_alcotest.to_alcotest t) [ prop_trace_roundtrip ]

let () =
  Alcotest.run "probe"
    [
      ( "shadow",
        [
          Alcotest.test_case "idle path" `Quick test_shadow_idle_path;
          Alcotest.test_case "sees queue" `Quick test_shadow_sees_queue;
          Alcotest.test_case "loss mark" `Quick test_shadow_loss_mark;
          Alcotest.test_case "transparent" `Quick test_shadow_transparent;
          Alcotest.test_case "empty path" `Quick test_shadow_empty_path;
        ] );
      ( "trace",
        [
          Alcotest.test_case "stats" `Quick test_trace_stats;
          Alcotest.test_case "truth accessors" `Quick test_trace_truth_accessors;
          Alcotest.test_case "sub" `Quick test_trace_sub;
          Alcotest.test_case "random segment" `Quick test_trace_random_segment;
          Alcotest.test_case "save/load roundtrip" `Quick test_trace_save_load_roundtrip;
          Alcotest.test_case "load rejects bad input" `Quick
            test_trace_load_rejects_bad_input;
        ] );
      ( "prober",
        [
          Alcotest.test_case "count and order" `Quick test_prober_count_and_order;
          Alcotest.test_case "idle path delays" `Quick test_prober_idle_path_delays;
          Alcotest.test_case "invalid window" `Quick test_prober_invalid_window;
          Alcotest.test_case "bounded event queue" `Quick test_prober_bounded_queue;
        ] );
      ( "losspair",
        [
          Alcotest.test_case "accounting" `Quick test_losspair_accounting;
          Alcotest.test_case "estimate near Qmax" `Quick test_losspair_estimate_near_qmax;
          Alcotest.test_case "no losses" `Quick test_losspair_no_losses;
          Alcotest.test_case "bounded event queue" `Quick test_losspair_bounded_queue;
        ] );
      ("properties", qcheck_cases);
    ]
