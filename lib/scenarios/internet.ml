open Netsim

type kind = Ethernet_ufpr | Adsl_from_ufpr | Adsl_from_usevilla | Adsl_from_snu

let kind_to_string = function
  | Ethernet_ufpr -> "Cornell->UFPR (Ethernet)"
  | Adsl_from_ufpr -> "UFPR->ADSL"
  | Adsl_from_usevilla -> "USevilla->ADSL"
  | Adsl_from_snu -> "SNU->ADSL"

(* Hop counts from Section VI-B. *)
let hop_count = function
  | Ethernet_ufpr -> 11
  | Adsl_from_ufpr -> 15
  | Adsl_from_usevilla -> 11
  | Adsl_from_snu -> 20

type congested = {
  hop : int;  (* link index on the path, 0-based *)
  bandwidth : float;
  capacity : int;
  (* grazing pulse parameters controlling the loss level *)
  pulse_on : float;
  pulse_period : float;
}

type profile = {
  hops : int;
  congested : congested list;  (* first entry = the main bottleneck *)
  stretch_hop : int;
      (* deep-buffered transit hop whose rare, fixed-height load pulses
         stretch the observed delay range (bufferbloat episodes) *)
  busy_transit : int list;  (* transit hops with light background jitter *)
}

(* The ADSL access link: the paper's pchar runs consistently point at a
   low-bandwidth link next to the receiver. *)
let adsl ~hop ~pulse_on ~pulse_period =
  { hop; bandwidth = 0.8e6; capacity = 25_600; pulse_on; pulse_period }

let profile = function
  | Ethernet_ufpr ->
      {
        hops = 11;
        congested =
          [
            {
              hop = 6;
              bandwidth = 1.2e6;
              capacity = 38_400;
              pulse_on = 0.005;
              pulse_period = 20.;
            };
          ];
        stretch_hop = 3;
        busy_transit = [ 2; 8 ];
      }
  | Adsl_from_ufpr ->
      {
        hops = 15;
        congested = [ adsl ~hop:14 ~pulse_on:0.005 ~pulse_period:20. ];
        stretch_hop = 7;
        busy_transit = [ 3; 11 ];
      }
  | Adsl_from_usevilla ->
      {
        hops = 11;
        congested = [ adsl ~hop:10 ~pulse_on:0.005 ~pulse_period:3. ];
        stretch_hop = 5;
        busy_transit = [ 2; 8 ];
      }
  | Adsl_from_snu ->
      {
        hops = 20;
        congested =
          [
            adsl ~hop:19 ~pulse_on:0.005 ~pulse_period:8.;
            (* The second congested link mid-path (the paper's 13th
               hop) with a clearly larger maximum queuing delay. *)
            {
              hop = 12;
              bandwidth = 0.5e6;
              capacity = 64_000;
              pulse_on = 0.005;
              pulse_period = 75.;
            };
          ];
        stretch_hop = 8;
        busy_transit = [ 4; 16 ];
      }

type outcome = {
  trace : Probe.Trace.t;
  skewed : Probe.Trace.t;
  repaired : Probe.Trace.t;
  skew_applied : float;
  skew_estimated : float;
  bottleneck_hop : int;
  bottleneck_q_max : float;
  secondary_hop : int option;
  secondary_q_max : float option;
  loss_rate : float;
  pathchar : Pathchar.result option;
}

let distort_clock ~skew ~offset trace =
  let records = trace.Probe.Trace.records in
  let t0 = if Array.length records = 0 then 0. else records.(0).Probe.Trace.send_time in
  let records =
    Array.map
      (fun (r : Probe.Trace.record) ->
        match r.obs with
        | Probe.Trace.Lost -> r
        | Probe.Trace.Delay d ->
            let drift = offset +. (skew *. (r.send_time -. t0)) in
            { r with obs = Probe.Trace.Delay (d +. drift) })
      records
  in
  { trace with records }

let repair_clock trace =
  let records = trace.Probe.Trace.records in
  let survivors =
    Array.to_list records
    |> List.filter_map (fun (r : Probe.Trace.record) ->
           match r.obs with
           | Probe.Trace.Delay d -> Some (r.send_time, d)
           | Probe.Trace.Lost -> None)
  in
  let times = Array.of_list (List.map fst survivors) in
  let delays = Array.of_list (List.map snd survivors) in
  if Array.length times < 2 then (trace, 0.)
  else
    let { Clocksync.slope; _ } = Clocksync.estimate ~times ~delays in
    let t0 = records.(0).Probe.Trace.send_time in
    let records =
      Array.map
        (fun (r : Probe.Trace.record) ->
          match r.obs with
          | Probe.Trace.Lost -> r
          | Probe.Trace.Delay d ->
              { r with obs = Probe.Trace.Delay (d -. (slope *. (r.send_time -. t0))) })
        records
    in
    ({ trace with records }, slope)

let run ?(seed = 1) ?(duration = 1200.) ?(with_pathchar = false) kind =
  let p = profile kind in
  let sim = Sim.create ~seed () in
  let rng = Stats.Rng.split (Sim.rng sim) in
  let net = Net.create sim in
  let src = Net.add_node net "sender" in
  let routers = Array.init p.hops (fun i -> Net.add_node net (Printf.sprintf "R%d" (i + 1))) in
  let dst = Net.add_node net "receiver" in
  (* Path nodes in order: src, R1 .. Rhops, dst — but the paper counts
     "hops" as links, so we use [hops - 1] routers and [hops] links. *)
  ignore routers;
  let path_nodes = Array.concat [ [| src |]; Array.sub routers 0 (p.hops - 1); [| dst |] ] in
  let congested_at hop = List.find_opt (fun c -> c.hop = hop) p.congested in
  let links =
    Array.init p.hops (fun i ->
        let a = path_nodes.(i) and b = path_nodes.(i + 1) in
        match congested_at i with
        | Some c ->
            let fwd, _ =
              Net.add_duplex net ~a ~b ~bandwidth:c.bandwidth
                ~delay:(Stats.Sampler.uniform rng ~lo:0.001 ~hi:0.006)
                ~capacity:c.capacity ()
            in
            fwd
        | None ->
            (* Busy transit hops are deep-buffered: their bursts create
               rare large delay spikes (never losses), stretching the
               observed delay range the way real wide-area paths do. *)
            let capacity = if i = p.stretch_hop then 1_500_000 else 100_000 in
            let fwd, _ =
              Net.add_duplex net ~a ~b ~bandwidth:10e6
                ~delay:(Stats.Sampler.uniform rng ~lo:0.001 ~hi:0.012)
                ~capacity ()
            in
            fwd)
  in
  Net.compute_routes net;
  (* Congested links: a CBR base plus grazing pulses (one brief
     overflow per period), plus light web traffic. *)
  List.iter
    (fun c ->
      let a = path_nodes.(c.hop) and b = path_nodes.(c.hop + 1) in
      Traffic.Udp.start
        (Traffic.Udp.cbr net ~src:a ~dst:b ~rate:(0.15 *. c.bandwidth) ~pkt_size:1000);
      let fill = float_of_int c.capacity /. ((4.15 -. 1.) *. c.bandwidth /. 8.) in
      let source =
        Traffic.Udp.pulse net ~src:a ~dst:b ~rate:(4. *. c.bandwidth) ~pkt_size:1000
          ~on_duration:(fill +. c.pulse_on) ~period:c.pulse_period
      in
      Sim.after sim (c.pulse_period *. Stats.Rng.float rng) (fun () ->
          Traffic.Udp.start source);
      Traffic.Workload.http_start
        (Traffic.Workload.http net ~src:a ~dst:b ~session_rate:0.01))
    p.congested;
  (* The stretch hop: every two minutes a fixed-size 25 Mb/s pulse
     builds ~0.9 s of backlog in the deep buffer and drains — a
     bufferbloat episode.  It pins the top of the observed delay range
     (so the congested link's full-queue delay sits at a low symbol, as
     on real wide-area paths) while coinciding with only ~1% of the
     probing time. *)
  (let a = path_nodes.(p.stretch_hop) and b = path_nodes.(p.stretch_hop + 1) in
   let source =
     Traffic.Udp.pulse net ~src:a ~dst:b ~rate:25e6 ~pkt_size:1000 ~on_duration:0.6
       ~period:120.
   in
   Sim.after sim (120. *. Stats.Rng.float rng) (fun () -> Traffic.Udp.start source));
  (* Busy transit hops: light background jitter, loss-free. *)
  List.iter
    (fun hop ->
      let a = path_nodes.(hop) and b = path_nodes.(hop + 1) in
      let source =
        Traffic.Udp.onoff net ~src:a ~dst:b ~rate:12e6 ~pkt_size:1000 ~mean_on:0.02
          ~mean_off:1.
      in
      Sim.after sim (Stats.Rng.float rng) (fun () -> Traffic.Udp.start source))
    p.busy_transit;
  let prober = Probe.Prober.create net ~src ~dst:(path_nodes.(p.hops)) ~interval:0.02 () in
  let warmup = 20. in
  Probe.Prober.start prober ~at:warmup ~until:(warmup +. duration);
  let pathchar_result = ref None in
  if with_pathchar then
    Sim.at sim warmup (fun () ->
        Pathchar.run net ~src ~hops:p.hops ~dst:(path_nodes.(p.hops)) ~k:(fun r ->
            pathchar_result := Some r));
  Sim.run_until sim (warmup +. duration +. 10.);
  let trace = Probe.Prober.trace prober in
  (* Receiver clock: up to +/-100 ppm skew, as real hosts exhibit. *)
  let skew = Stats.Sampler.uniform rng ~lo:(-1e-4) ~hi:1e-4 in
  let skewed = distort_clock ~skew ~offset:0.005 trace in
  let repaired, est = repair_clock skewed in
  let main = List.hd p.congested in
  let secondary = match p.congested with _ :: s :: _ -> Some s | [ _ ] | [] -> None in
  {
    trace;
    skewed;
    repaired;
    skew_applied = skew;
    skew_estimated = est;
    bottleneck_hop = main.hop;
    bottleneck_q_max = Link.max_queuing_delay links.(main.hop);
    secondary_hop = Option.map (fun c -> c.hop) secondary;
    secondary_q_max = Option.map (fun c -> Link.max_queuing_delay links.(c.hop)) secondary;
    loss_rate = Probe.Trace.loss_rate trace;
    pathchar = !pathchar_result;
  }
