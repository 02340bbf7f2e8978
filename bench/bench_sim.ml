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

type scenario = { name : string; sim_seconds : float; run : unit -> Probe.Trace.t }

(* Catalogue scenarios at seed 1; an Internet path contributes its
   true-clock trace. *)
let scenarios ~smoke =
  List.map
    (fun name ->
      match (Scenarios.Catalogue.find name).source with
      | Topology config ->
          let sim_seconds = if smoke then 30. else 300. in
          let config = config ~seed:1 ~duration:sim_seconds in
          { name; sim_seconds; run = (fun () -> (Scenarios.Paper_topology.run config).trace) }
      | Path kind ->
          let sim_seconds = if smoke then 30. else 600. in
          let run () = (Scenarios.Internet.run ~seed:1 ~duration:sim_seconds kind).trace in
          { name; sim_seconds; run })
    [ "table2-strongly"; "table3-weakly"; "table4-nodcl"; "red-weakly"; "cornell-ufpr"; "snu-adsl" ]

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
    print = Printf.sprintf "%016Lx" (Probe.Trace.fingerprint trace);
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
