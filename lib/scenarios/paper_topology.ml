open Netsim

type link_config = { bandwidth : float; capacity : int; queue : Net.queue_spec }

type cross_config = {
  ftp_flows : int;
  http_sessions_per_s : float;
  onoff_rate : float;
  onoff_mean_on : float;
  onoff_mean_off : float;
  cbr_rate : float;
  pulse_rate : float;
  pulse_on : float;
  pulse_period : float;
}

let no_cross =
  {
    ftp_flows = 0;
    http_sessions_per_s = 0.;
    onoff_rate = 0.;
    onoff_mean_on = 0.5;
    onoff_mean_off = 0.5;
    cbr_rate = 0.;
    pulse_rate = 0.;
    pulse_on = 0.5;
    pulse_period = 30.;
  }

type config = {
  seed : int;
  backbone : link_config array;
  cross : cross_config array;
  probe_interval : float;
  warmup : float;
  duration : float;
  with_loss_pairs : bool;
  pair_interval : float;
}

let default_link = { bandwidth = 10e6; capacity = 80_000; queue = Net.Droptail_q }

let default_config =
  {
    seed = 1;
    backbone = Array.make 3 default_link;
    cross = Array.make 3 no_cross;
    probe_interval = 0.02;
    warmup = 30.;
    duration = 300.;
    with_loss_pairs = false;
    pair_interval = 0.04;
  }

type link_report = {
  label : string;
  loss_rate : float;
  utilization : float;
  q_max : float;
  arrivals : int;
  drops : int;
}

type outcome = {
  trace : Probe.Trace.t;
  reports : link_report array;
  backbone_hops : int array;
  loss_pair_samples : float array;
  loss_pair_estimate : float option;
}

let start_cross_traffic net rng ~src ~dst (c : cross_config) =
  let sim = Net.sim net in
  for k = 0 to c.ftp_flows - 1 do
    (* Stagger FTP starts so slow-start bursts do not synchronize. *)
    let at = 0.05 +. (0.37 *. float_of_int k) +. (0.1 *. Stats.Rng.float rng) in
    ignore (Traffic.Workload.ftp_at net ~src ~dst ~at)
  done;
  if c.http_sessions_per_s > 0. then
    Traffic.Workload.http_start
      (Traffic.Workload.http net ~src ~dst ~session_rate:c.http_sessions_per_s);
  if c.onoff_rate > 0. then begin
    let source =
      Traffic.Udp.onoff net ~src ~dst ~rate:c.onoff_rate ~pkt_size:1000
        ~mean_on:c.onoff_mean_on ~mean_off:c.onoff_mean_off
    in
    Sim.after sim (0.2 *. Stats.Rng.float rng) (fun () -> Traffic.Udp.start source)
  end;
  if c.cbr_rate > 0. then
    Traffic.Udp.start (Traffic.Udp.cbr net ~src ~dst ~rate:c.cbr_rate ~pkt_size:1000);
  if c.pulse_rate > 0. then begin
    let source =
      Traffic.Udp.pulse net ~src ~dst ~rate:c.pulse_rate ~pkt_size:1000
        ~on_duration:c.pulse_on ~period:c.pulse_period
    in
    Sim.after sim (c.pulse_period *. Stats.Rng.float rng) (fun () ->
        Traffic.Udp.start source)
  end

let run config =
  if Array.length config.backbone <> 3 || Array.length config.cross <> 3 then
    invalid_arg "Paper_topology.run: need exactly 3 backbone link and cross configs";
  let sim = Sim.create ~seed:config.seed () in
  let rng = Stats.Rng.split (Sim.rng sim) in
  let net = Net.create sim in
  let s0 = Net.add_node net "s0" in
  let routers = Array.init 4 (fun i -> Net.add_node net (Printf.sprintf "r%d" (i + 1))) in
  let d0 = Net.add_node net "d0" in
  (* Access links: ample bandwidth and buffer, no loss (paper setup).
     Edge propagation delays are drawn from U[0.5 ms, 1.5 ms]. *)
  let edge_delay () = Stats.Sampler.uniform rng ~lo:0.0005 ~hi:0.0015 in
  ignore
    (Net.add_duplex net ~a:s0 ~b:routers.(0) ~bandwidth:10e6 ~delay:(edge_delay ())
       ~capacity:1_000_000 ());
  ignore
    (Net.add_duplex net ~a:routers.(3) ~b:d0 ~bandwidth:10e6 ~delay:(edge_delay ())
       ~capacity:1_000_000 ());
  let backbone =
    Array.init 3 (fun i ->
        let lc = config.backbone.(i) in
        let fwd, _rev =
          Net.add_duplex net ~a:routers.(i) ~b:routers.(i + 1) ~bandwidth:lc.bandwidth
            ~delay:0.005 ~capacity:lc.capacity ~queue:lc.queue ()
        in
        fwd)
  in
  Net.compute_routes net;
  Array.iteri
    (fun i c -> start_cross_traffic net rng ~src:routers.(i) ~dst:routers.(i + 1) c)
    config.cross;
  let prober = Probe.Prober.create net ~src:s0 ~dst:d0 ~interval:config.probe_interval () in
  let t_end = config.warmup +. config.duration in
  Probe.Prober.start prober ~at:config.warmup ~until:t_end;
  let pairs =
    if config.with_loss_pairs then begin
      let lp =
        Probe.Losspair.create net ~src:s0 ~dst:d0 ~pair_interval:config.pair_interval ()
      in
      Probe.Losspair.start lp ~at:config.warmup ~until:t_end;
      Some lp
    end
    else None
  in
  (* Slack after the probing window lets in-flight shadows finish. *)
  Sim.run_until sim (t_end +. 5.);
  let trace = Probe.Prober.trace prober in
  let reports =
    Array.mapi
      (fun i link ->
        {
          label = Printf.sprintf "L%d (r%d,r%d)" (i + 1) (i + 1) (i + 2);
          loss_rate = Link.loss_rate link;
          utilization = Link.busy_time link /. Sim.now sim;
          q_max = Link.max_queuing_delay link;
          arrivals = Link.arrivals link;
          drops = Link.drops link;
        })
      backbone
  in
  let loss_pair_samples =
    match pairs with Some lp -> Probe.Losspair.samples lp | None -> [||]
  in
  {
    trace;
    reports;
    (* Probe path: s0->r1 (hop 0), L1..L3 (hops 1..3), r4->d0 (hop 4). *)
    backbone_hops = [| 1; 2; 3 |];
    loss_pair_samples;
    loss_pair_estimate = Probe.Losspair.estimate_max_queuing_delay loss_pair_samples;
  }
