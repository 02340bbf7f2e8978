(* Continuous monitoring: watch a path's congestion structure change.

   For the first half of this run a single link is congested (a
   dominant congested link exists); at t = 620 s heavy overflow pulses
   start on a second link, and the path stops having a dominant
   congested link.  The recorded trace is replayed, in order from its
   first probe, into a one-path streaming fleet ([Fleet.Source.of_trace
   ~paths:1] feeding a [Fleet.Scheduler]): one online-EM step plus the
   SDCL/WDCL re-test per epoch.  The regime change shows up as the
   scheduler's conclusion transitions.

   The settings matter.  The model's effective memory is
   [epoch_len / (1 - lambda)] observations: here 500 / 0.1 = 5000
   probes, 100 s at 20 ms spacing, which spans five 20 s pulse periods.
   Much shorter memory (dcl-fleetd's default 16-observation epochs at
   the same lambda remember ~3 s) sees single pulses as regimes: the
   path then flaps several times a minute after the switch and can
   leave strongly-dominant before it.

     dune exec examples/online_monitor.exe *)

open Netsim

let epoch_len = 500
let lambda = 0.9

let () =
  let sim = Sim.create ~seed:21 () in
  let net = Net.create sim in
  let src = Net.add_node net "src" in
  let r1 = Net.add_node net "r1" in
  let r2 = Net.add_node net "r2" in
  let r3 = Net.add_node net "r3" in
  let dst = Net.add_node net "dst" in
  ignore (Net.add_duplex net ~a:src ~b:r1 ~bandwidth:10e6 ~delay:0.001 ~capacity:200_000 ());
  (* Link A: 0.7 Mb/s, modest buffer — congested from the start. *)
  ignore (Net.add_duplex net ~a:r1 ~b:r2 ~bandwidth:0.7e6 ~delay:0.005 ~capacity:25_600 ());
  (* Link B: 0.2 Mb/s, large buffer — idle at first. *)
  ignore (Net.add_duplex net ~a:r2 ~b:r3 ~bandwidth:0.2e6 ~delay:0.005 ~capacity:25_600 ());
  ignore (Net.add_duplex net ~a:r3 ~b:dst ~bandwidth:10e6 ~delay:0.001 ~capacity:200_000 ());
  Net.compute_routes net;

  (* Link A's congestion: two FTP sawtooths, running throughout. *)
  ignore (Traffic.Workload.ftp_at net ~src:r1 ~dst:r2 ~at:0.1);
  ignore (Traffic.Workload.ftp_at net ~src:r1 ~dst:r2 ~at:0.4);
  (* Link B: a light base load now; heavy overflow pulses START AT
     t = 620 s (the regime change). *)
  Traffic.Udp.start (Traffic.Udp.cbr net ~src:r2 ~dst:r3 ~rate:0.05e6 ~pkt_size:1000);
  let pulses =
    Traffic.Udp.pulse net ~src:r2 ~dst:r3 ~rate:0.8e6 ~pkt_size:1000 ~on_duration:0.55
      ~period:20.
  in
  Sim.at sim 620. (fun () -> Traffic.Udp.start pulses);

  (* Probe for 20 minutes. *)
  let prober = Probe.Prober.create net ~src ~dst ~interval:0.02 () in
  Probe.Prober.start prober ~at:20. ~until:1220.;
  Sim.run_until sim 1225.;
  let trace = Probe.Prober.trace prober in
  Printf.printf "trace: %d probes, loss rate %.2f%%\n" (Probe.Trace.length trace)
    (100. *. Probe.Trace.loss_rate trace);

  (* Replay the trace through a one-path fleet.  Whole epochs only, so
     the replay never wraps back to the first probe. *)
  let source = Fleet.Source.of_trace ~paths:1 trace in
  let config = Fleet.Path_state.config ~lambda ~scheme:(Fleet.Source.scheme source) () in
  let t0 = trace.Probe.Trace.records.(0).Probe.Trace.send_time in
  let epoch_end epoch =
    t0 +. (float_of_int ((epoch + 1) * epoch_len) *. trace.Probe.Trace.interval)
  in
  print_endline "change points (time = end of the epoch that changed):";
  let on_transition (tr : Fleet.Scheduler.transition) =
    Printf.printf "  %6.0f s  epoch %3d  %s -> %s\n" (epoch_end tr.epoch) tr.epoch
      (Dcl.Identify.verdict_name tr.was)
      (Dcl.Identify.verdict_name tr.now)
  in
  let sched =
    Fleet.Scheduler.create ~on_transition ~rng:(Stats.Rng.create 3) ~paths:1 config
  in
  let t_start = Sys.time () in
  let epochs = Probe.Trace.length trace / epoch_len in
  for _ = 1 to epochs do
    Fleet.Scheduler.push sched ~path:0 (Fleet.Source.pull source ~path:0 ~len:epoch_len);
    ignore (Fleet.Scheduler.tick sched : int)
  done;
  Printf.printf "%d epochs of %d probes (lambda %.2f) in %.3f s; final: %s\n" epochs
    epoch_len lambda
    (Sys.time () -. t_start)
    (Dcl.Identify.verdict_name (Fleet.Scheduler.conclusion sched 0))
