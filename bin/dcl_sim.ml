(* dcl-sim: run one of the built-in experiment scenarios and write the
   probe trace to a file for later analysis with dcl-identify.

     dcl-sim --scenario weakly --duration 600 --seed 3 -o weakly.trace *)

open Cmdliner

type scenario =
  | Strongly
  | Weakly
  | No_dcl
  | Inet_ufpr
  | Inet_adsl_ufpr
  | Inet_adsl_usevilla
  | Inet_adsl_snu

let scenarios =
  [
    ("strongly", Strongly);
    ("weakly", Weakly);
    ("nodcl", No_dcl);
    ("inet-ufpr", Inet_ufpr);
    ("inet-adsl-ufpr", Inet_adsl_ufpr);
    ("inet-adsl-usevilla", Inet_adsl_usevilla);
    ("inet-adsl-snu", Inet_adsl_snu);
  ]

let print_link_reports reports =
  Array.iter
    (fun (r : Scenarios.Paper_topology.link_report) ->
      Printf.printf "  %-12s loss %5.2f%%  util %4.2f  Q_max %6.1f ms  (%d drops / %d arrivals)\n"
        r.Scenarios.Paper_topology.label
        (100. *. r.Scenarios.Paper_topology.loss_rate)
        r.Scenarios.Paper_topology.utilization
        (1000. *. r.Scenarios.Paper_topology.q_max)
        r.Scenarios.Paper_topology.drops r.Scenarios.Paper_topology.arrivals)
    reports

let summarize_trace trace =
  Printf.printf "trace: %d probes over %.0f s, loss rate %.3f%%\n" (Probe.Trace.length trace)
    (Probe.Trace.duration trace)
    (100. *. Probe.Trace.loss_rate trace)

let run scenario seed duration bw3 output metrics =
  Obs_cli.with_metrics metrics @@ fun () ->
  let trace =
    match scenario with
    | Strongly | Weakly | No_dcl ->
        let cfg =
          match scenario with
          | Strongly -> Scenarios.Presets.strongly_dcl ~seed ~duration ~bw3 ()
          | Weakly -> Scenarios.Presets.weakly_dcl ~seed ~duration ()
          | No_dcl | _ -> Scenarios.Presets.no_dcl ~seed ~duration ()
        in
        let o = Scenarios.Paper_topology.run cfg in
        print_link_reports o.Scenarios.Paper_topology.reports;
        let shares =
          Dcl.Truth.loss_shares o.Scenarios.Paper_topology.trace ~hop_count:5
        in
        Printf.printf "loss shares by hop: %s\n"
          (String.concat " "
             (Array.to_list (Array.map (Printf.sprintf "%.3f") shares)));
        Format.printf "ground truth: %a@." Dcl.Truth.pp_regime
          (Dcl.Truth.classify o.Scenarios.Paper_topology.trace ~hop_count:5);
        o.Scenarios.Paper_topology.trace
    | Inet_ufpr | Inet_adsl_ufpr | Inet_adsl_usevilla | Inet_adsl_snu ->
        let kind =
          match scenario with
          | Inet_ufpr -> Scenarios.Internet.Ethernet_ufpr
          | Inet_adsl_ufpr -> Scenarios.Internet.Adsl_from_ufpr
          | Inet_adsl_usevilla -> Scenarios.Internet.Adsl_from_usevilla
          | Inet_adsl_snu | _ -> Scenarios.Internet.Adsl_from_snu
        in
        let o = Scenarios.Internet.run ~seed ~duration kind in
        Printf.printf "%s: %d hops, clock skew %.1f ppm (estimated %.1f ppm)\n"
          (Scenarios.Internet.kind_to_string kind)
          (Scenarios.Internet.hop_count kind)
          (1e6 *. o.Scenarios.Internet.skew_applied)
          (1e6 *. o.Scenarios.Internet.skew_estimated);
        (* The written trace is the skew-repaired one, as a real
           measurement pipeline would produce. *)
        o.Scenarios.Internet.repaired
  in
  summarize_trace trace;
  Probe.Trace.save trace output;
  Printf.printf "trace written to %s\n" output;
  0

let scenario_arg =
  let doc =
    Printf.sprintf "Scenario to simulate: %s."
      (String.concat ", " (List.map fst scenarios))
  in
  Arg.(
    required
    & opt (some (enum scenarios)) None
    & info [ "s"; "scenario" ] ~docv:"NAME" ~doc)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let duration_arg =
  Arg.(
    value
    & opt (Obs_cli.positive_float ~what:"--duration") 300.
    & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc:"Probing duration in seconds.")

let bw3_arg =
  Arg.(
    value
    & opt (Obs_cli.positive_float ~what:"--bw3") 1e6
    & info [ "bw3" ] ~docv:"BPS"
        ~doc:"Bottleneck (L3) bandwidth for the strongly scenario, bits/s.")

let output_arg =
  Arg.(
    value & opt string "probe.trace"
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")

let cmd =
  let doc = "simulate a dominant-congested-link scenario and record a probe trace" in
  Cmd.v
    (Cmd.info "dcl-sim" ~doc)
    Term.(
      const run $ scenario_arg $ seed_arg $ duration_arg $ bw3_arg $ output_arg
      $ Obs_cli.metrics_arg)

let () = exit (Cmd.eval' cmd)
