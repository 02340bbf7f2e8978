(* dcl-sim: run one of the built-in experiment scenarios and write the
   probe trace to a file for later analysis with dcl-identify.

     dcl-sim --scenario table3-weakly --duration 600 --seed 3 -o weakly.trace *)

open Cmdliner

let run (scenario : Scenarios.Catalogue.entry) seed duration output metrics =
  Obs_cli.with_metrics metrics @@ fun () ->
  let trace =
    match scenario.source with
    | Topology config ->
        let o : Scenarios.Paper_topology.outcome =
          Scenarios.Paper_topology.run (config ~seed ~duration)
        in
        Array.iter
          (fun (r : Scenarios.Paper_topology.link_report) ->
            Printf.printf
              "  %-12s loss %5.2f%%  util %4.2f  Q_max %6.1f ms  (%d drops / %d arrivals)\n"
              r.label (100. *. r.loss_rate) r.utilization (1000. *. r.q_max) r.drops r.arrivals)
          o.reports;
        Printf.printf "loss shares by hop: %s\n"
          (String.concat " "
             (Array.to_list
                (Array.map (Printf.sprintf "%.3f") (Dcl.Truth.loss_shares o.trace ~hop_count:5))));
        Format.printf "ground truth: %a@." Dcl.Truth.pp_regime
          (Dcl.Truth.classify o.trace ~hop_count:5);
        o.trace
    | Path kind ->
        let o : Scenarios.Internet.outcome = Scenarios.Internet.run ~seed ~duration kind in
        Printf.printf "%s: %d hops, clock skew %.1f ppm (estimated %.1f ppm)\n"
          (Scenarios.Internet.kind_to_string kind)
          (Scenarios.Internet.hop_count kind)
          (1e6 *. o.skew_applied) (1e6 *. o.skew_estimated);
        (* The written trace is the skew-repaired one, as a real
           measurement pipeline would produce. *)
        o.repaired
  in
  Printf.printf "trace: %d probes over %.0f s, loss rate %.3f%%\n" (Probe.Trace.length trace)
    (Probe.Trace.duration trace)
    (100. *. Probe.Trace.loss_rate trace);
  match Obs_cli.undiscretizable trace with
  | Some why ->
      Printf.eprintf "dcl-sim: %s over %g s: %s; no trace written\n" scenario.name duration why;
      1
  | None ->
      Probe.Trace.save trace output;
      Printf.printf "trace written to %s\n" output;
      0

let scenario_arg =
  let scenarios =
    List.map (fun (e : Scenarios.Catalogue.entry) -> (e.name, e)) Scenarios.Catalogue.all
  in
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

let output_arg =
  Arg.(
    value & opt string "probe.trace"
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")

let cmd =
  let doc = "simulate a dominant-congested-link scenario and record a probe trace" in
  Cmd.v
    (Cmd.info "dcl-sim" ~doc)
    Term.(
      const run $ scenario_arg $ seed_arg $ duration_arg $ output_arg
      $ Obs_cli.metrics_arg)

let () = exit (Cmd.eval' cmd)
