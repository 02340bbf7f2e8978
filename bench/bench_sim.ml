(* Simulator benchmark: the discrete-event engine's cost per event on
   the six traces of perfbench's identify-paper workload (Tables II-IV,
   adaptive RED, two emulated Internet paths), emitted as
   BENCH_sim.json.

   Per scenario it reports the events fired, the event-queue depth
   high-water mark, minor words allocated per event, events per second
   and a fingerprint of the probe trace.  Repeats alternate across the
   scenarios (all six, then all six again), so a slow phase of the host
   touches every scenario alike; each timing is the median over the
   repeats, with the minimum and maximum.  The schema is documented in
   DESIGN.md ("BENCH_sim.json").

   Exits 1 if two runs of a scenario differ in fingerprint or event
   count, or if a queue depth exceeds [depth_bound]. *)

let depth_bound = 1000

(* Order-sensitive fold of the IEEE bits of every record: send time,
   observation, virtual queuing delay, per-hop queuing, loss hop. *)
let fingerprint (t : Probe.Trace.t) =
  let fold h x = Int64.add (Int64.mul h 1000003L) (Int64.bits_of_float x) in
  let fold_int h i = Int64.add (Int64.mul h 31L) (Int64.of_int i) in
  Array.fold_left
    (fun h (r : Probe.Trace.record) ->
      let h = fold h r.Probe.Trace.send_time in
      let h =
        match r.Probe.Trace.obs with
        | Probe.Trace.Lost -> fold_int h 0
        | Probe.Trace.Delay d -> fold (fold_int h 1) d
      in
      match r.Probe.Trace.truth with
      | None -> fold_int h 0
      | Some tr ->
          let h = fold (fold_int h 1) tr.Probe.Trace.virtual_queuing_delay in
          let h = Array.fold_left fold h tr.Probe.Trace.hop_queuing in
          fold_int h (match tr.Probe.Trace.loss_hop with Some k -> k + 1 | None -> 0))
    (fold_int 0L (Probe.Trace.length t))
    t.Probe.Trace.records
  |> Printf.sprintf "%016Lx"

type scenario = { name : string; sim_seconds : float; run : unit -> Probe.Trace.t }

let scenarios ~smoke =
  let topology name duration config =
    {
      name;
      sim_seconds = duration;
      run = (fun () -> (Scenarios.Paper_topology.run config).Scenarios.Paper_topology.trace);
    }
  in
  let internet name duration kind =
    {
      name;
      sim_seconds = duration;
      run = (fun () -> (Scenarios.Internet.run ~duration kind).Scenarios.Internet.trace);
    }
  in
  let d_topo = if smoke then 30. else 300. and d_inet = if smoke then 30. else 600. in
  let bw3 = List.hd Scenarios.Presets.strongly_dcl_sweep in
  let open Scenarios.Presets in
  [
    topology "table2-strongly" d_topo (strongly_dcl ~duration:d_topo ~bw3 ());
    topology "table3-weakly" d_topo (weakly_dcl ~duration:d_topo ());
    topology "table4-nodcl" d_topo (no_dcl ~duration:d_topo ());
    topology "red-weakly" d_topo (with_red ~min_th_frac:0.2 (weakly_dcl ~duration:d_topo ()));
    internet "cornell-ufpr" d_inet Scenarios.Internet.Ethernet_ufpr;
    internet "snu-adsl" d_inet Scenarios.Internet.Adsl_from_snu;
  ]

type run = { events : int; depth : int; minor_words : float; seconds : float; print : string }

let m_events = Obs.Counter.make "dcl_sim_events_total"
let m_depth = Obs.Gauge.make "dcl_sim_queue_depth_max"

let measure s =
  Obs.Gauge.set m_depth 0.;
  let e0 = Obs.Counter.value m_events in
  let w0 = Gc.minor_words () in
  let t0 = Obs.Span.now_ns () in
  let trace = s.run () in
  let seconds = float_of_int (Obs.Span.now_ns () - t0) *. 1e-9 in
  let minor_words = Gc.minor_words () -. w0 in
  {
    events = int_of_float (Obs.Counter.value m_events -. e0);
    depth = int_of_float (Obs.Gauge.value m_depth);
    minor_words;
    seconds;
    print = fingerprint trace;
  }

(* The median, minimum and maximum of [xs] (an odd count keeps the
   median a run's own value). *)
let median_min_max xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  (a.(n / 2), a.(0), a.(n - 1))

let () =
  let smoke =
    match Array.to_list Sys.argv with
    | [ _ ] -> false
    | [ _; "--smoke" ] -> true
    | _ ->
        prerr_endline "usage: bench_sim [--smoke]";
        exit 2
  in
  let repeats = if smoke then 3 else 7 in
  Obs.set_enabled true;
  let cases = scenarios ~smoke in
  let runs = List.map (fun s -> (s, ref [])) cases in
  for round = 1 to repeats do
    Printf.eprintf "bench_sim: round %d/%d\n%!" round repeats;
    List.iter (fun (s, acc) -> acc := measure s :: !acc) runs
  done;
  let failed = ref false in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        failed := true;
        Printf.eprintf "FATAL: %s\n%!" msg)
      fmt
  in
  let rows =
    List.map
      (fun (s, acc) ->
        let rs = List.rev !acc in
        let first = List.hd rs in
        List.iter
          (fun r ->
            if r.print <> first.print || r.events <> first.events then
              fail "%s: runs differ (fingerprint %s vs %s, events %d vs %d)" s.name first.print
                r.print first.events r.events)
          rs;
        let depth = List.fold_left (fun m r -> max m r.depth) 0 rs in
        if depth > depth_bound then
          fail "%s: event-queue depth %d exceeds the bound %d" s.name depth depth_bound;
        let ev = float_of_int first.events in
        let rate, rate_min, rate_max =
          median_min_max (List.map (fun r -> ev /. r.seconds) rs)
        in
        let words, _, _ = median_min_max (List.map (fun r -> r.minor_words /. ev) rs) in
        Printf.eprintf "bench_sim: %-16s %9d events  depth %4d  %6.1f words/event  %5.0f ns/event\n%!"
          s.name first.events depth words (1e9 /. rate);
        Printf.sprintf
          "    {\"name\": %S, \"sim_seconds\": %.0f, \"events\": %d, \"queue_depth_max\": %d, \
           \"minor_words_per_event\": %.2f, \"events_per_s\": %.0f, \"events_per_s_min\": %.0f, \
           \"events_per_s_max\": %.0f, \"ns_per_event\": %.1f, \"fingerprint\": %S}"
          s.name s.sim_seconds first.events depth words rate rate_min rate_max (1e9 /. rate)
          first.print)
      runs
  in
  let json =
    Printf.sprintf
      "{\n  \"bench\": \"netsim\",\n  \"profile\": %S,\n  \"cores\": %d,\n  \"repeats\": %d,\n  \"depth_bound\": %d,\n\
      \  \"note\": \"each scenario is one Scenarios run of perfbench identify-paper's trace \
       (sim_seconds of probing), with Obs collection on. repeats alternate across the six \
       scenarios; events_per_s is the median over the repeats with the minimum and maximum, \
       ns_per_event its inverse. events (dcl_sim_events_total) and the trace fingerprint are \
       asserted equal in every repeat; queue_depth_max is the dcl_sim_queue_depth_max \
       high-water mark over the repeats, asserted at most depth_bound; minor_words_per_event \
       is the median Gc.minor_words delta of a whole run per event, set-up and trace assembly \
       included.\",\n\
      \  \"scenarios\": [\n%s\n  ]\n}\n"
      Build_profile.name (Stats.Pool.size ()) repeats depth_bound (String.concat ",\n" rows)
  in
  let path = if smoke then "BENCH_sim.smoke.json" else "BENCH_sim.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  print_string json;
  Printf.eprintf "bench_sim: wrote %s\n%!" path;
  if !failed then exit 1
