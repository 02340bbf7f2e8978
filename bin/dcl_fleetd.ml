(* dcl-fleetd: fleet-scale streaming monitor.  Drives an observation
   source — synthetic templates, a recorded probe trace, or a fresh
   netsim run — through the fleet epoch scheduler and reports per-path
   conclusions.

     dcl-fleetd --paths 100000 --epochs 20
     dcl-fleetd --source probe.trace --paths 1000 --lambda 0.95
     dcl-fleetd --source sim --paths 500 --domains 4 --metrics -
     dcl-fleetd --paths 100000 --gate --congested-fraction 0.1 *)

open Cmdliner

let source_conv =
  let parse s =
    match s with
    | "synth" | "sim" -> Ok s
    | file when Sys.file_exists file -> Ok file
    | s ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown source %S: expected 'synth', 'sim', or the path of an \
                 existing probe trace file"
                s))
  in
  Arg.conv ~docv:"SRC" (parse, Format.pp_print_string)

let build_source source rng ~paths ~m ~congested_fraction ~seed =
  match source with
  | "synth" -> Ok (Fleet.Source.synthetic ~congested_fraction ~m ~rng ~paths ())
  | "sim" ->
      (* The Table II strongly-dominant scenario; 60 s of probing keeps
         startup short while leaving thousands of symbols to replay. *)
      let trace =
        match (Scenarios.Catalogue.find "table2-strongly").source with
        | Topology config -> (Scenarios.Paper_topology.run (config ~seed ~duration:60.)).trace
        | Path kind -> (Scenarios.Internet.run ~seed ~duration:60. kind).repaired
      in
      Ok (Fleet.Source.of_trace ~m ~paths trace)
  | file ->
      Result.bind (Probe.Trace.load file) (fun trace ->
          match Obs_cli.undiscretizable trace with
          | Some why -> Error (file ^ ": " ^ why)
          | None -> Ok (Fleet.Source.of_trace ~m ~paths trace))

(* How many paths hold each conclusion, in report order (untested
   last), from one pass over the fleet. *)
let conclusion_counts sched =
  let counts = Hashtbl.create 4 in
  for p = 0 to Fleet.Scheduler.path_count sched - 1 do
    let c = Fleet.Scheduler.conclusion sched p in
    Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
  done;
  List.map
    (fun c -> (c, Option.value ~default:0 (Hashtbl.find_opt counts c)))
    Dcl.Identify.[ Some Strongly_dominant; Some Weakly_dominant; Some No_dominant; None ]

(* JSON helpers for the admin routes: non-finite floats are not
   representable in JSON and go out as null. *)
let jfloat x = if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

let run paths epochs epoch_len lambda n m domains source congested_fraction seed
    gate gate_loss gate_drift gate_h gate_demote verbose metrics trace listen
    metrics_interval linger =
  Obs_cli.with_metrics metrics @@ fun () ->
  Obs_cli.with_trace trace @@ fun () ->
  (* The admin endpoint's /metrics route is pointless without
     collection, so --listen implies it. *)
  if listen <> None then Obs.set_enabled true;
  let rng = Stats.Rng.create seed in
  match build_source source rng ~paths ~m ~congested_fraction ~seed with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok src ->
      let config =
        Fleet.Path_state.config ~n ~lambda ~scheme:(Fleet.Source.scheme src) ()
      in
      let transitions = ref 0 in
      let on_transition (tr : Fleet.Scheduler.transition) =
        incr transitions;
        if verbose then
          Printf.printf "epoch %3d path %6d: %s -> %s\n" tr.Fleet.Scheduler.epoch
            tr.Fleet.Scheduler.path
            (Dcl.Identify.verdict_name tr.Fleet.Scheduler.was)
            (Dcl.Identify.verdict_name tr.Fleet.Scheduler.now)
      in
      let gate =
        if gate then
          Some
            (Sketch.Gate.config ~loss_threshold:gate_loss ~drift_threshold:gate_drift
               ~promote_after:gate_h ~demote_after:gate_demote ())
        else None
      in
      let sched =
        Fleet.Scheduler.create ~domains ~on_transition ?gate ~rng ~paths config
      in
      let admin =
        Option.map
          (fun port ->
            let fast path =
              (* Answered on the server domain: these only read the metrics
                 registry's atomics.  Everything else (fleet state, trace
                 rings) defers to the driver via serve_pending. *)
              match path with
              | "/healthz" -> Some ("text/plain", "ok\n")
              | "/metrics" -> Some ("text/plain; version=0.0.4", Obs.prometheus ())
              | _ -> None
            in
            let a = Obs.Admin.start ~port ~fast () in
            Printf.printf "admin: listening on http://127.0.0.1:%d\n%!"
              (Obs.Admin.port a);
            a)
          listen
      in
      Fun.protect ~finally:(fun () -> Option.iter Obs.Admin.stop admin) @@ fun () ->
      let path_json p =
        let ps = Fleet.Scheduler.path sched p in
        let gate_json =
          match Fleet.Scheduler.gate_view sched p with
          | None -> "null"
          | Some gv ->
              Printf.sprintf
                "{\"promoted\":%b,\"loss_ewma\":%s,\"drift\":%s,\"loss_estimate\":%d}"
                gv.Fleet.Scheduler.promoted_path
                (jfloat gv.Fleet.Scheduler.loss_ewma)
                (jfloat gv.Fleet.Scheduler.drift)
                gv.Fleet.Scheduler.loss_estimate
        in
        Printf.sprintf
          "{\"path\":%d,\"conclusion\":\"%s\",\"bound\":%s,\"weight\":%s,\"epochs\":%d,\"observations\":%d,\"resets\":%d,\"gate\":%s,\"timeline\":%s}\n"
          p
          (Dcl.Identify.verdict_name (Fleet.Path_state.conclusion ps))
          (match Fleet.Path_state.bound ps with Some b -> jfloat b | None -> "null")
          (jfloat (Fleet.Path_state.weight ps))
          (Fleet.Path_state.epochs ps)
          (Fleet.Path_state.observations ps)
          (Fleet.Path_state.resets ps)
          gate_json
          (Fleet.Timeline.to_json (Fleet.Path_state.timeline ps))
      in
      let summary_json () =
        let counts = conclusion_counts sched in
        let count c = List.assoc c counts in
        Printf.sprintf
          "{\"paths\":%d,\"epoch\":%d,\"promoted\":%d,\"strongly_dominant\":%d,\"weakly_dominant\":%d,\"no_dominant\":%d,\"untested\":%d}\n"
          paths (Fleet.Scheduler.epoch sched)
          (Fleet.Scheduler.promoted_count sched)
          (count (Some Dcl.Identify.Strongly_dominant))
          (count (Some Dcl.Identify.Weakly_dominant))
          (count (Some Dcl.Identify.No_dominant))
          (count None)
      in
      let handle path =
        if path = "/paths" then Some ("application/json", summary_json ())
        else if path = "/trace" then Some ("application/json", Obs.Trace.chrome_json ())
        else if String.length path > 7 && String.sub path 0 7 = "/paths/" then
          match int_of_string_opt (String.sub path 7 (String.length path - 7)) with
          | Some p when p >= 0 && p < paths -> Some ("application/json", path_json p)
          | _ -> None
        else None
      in
      let serve () =
        match admin with
        | Some a -> ignore (Obs.Admin.serve_pending a ~handle : int)
        | None -> ()
      in
      let start = Obs.Span.now_ns () in
      for e = 1 to epochs do
        for p = 0 to paths - 1 do
          Fleet.Scheduler.push sched ~path:p
            (Fleet.Source.pull src ~path:p ~len:epoch_len)
        done;
        ignore (Fleet.Scheduler.tick sched : int);
        serve ();
        (* Per-epoch flush: a crashed or killed run still leaves a metrics
           snapshot behind (the write is atomic, so scrapers never see a
           torn file).  Stdout dumps stay exit-only. *)
        match metrics with
        | Some d when d <> "-" && e mod metrics_interval = 0 -> Obs.write d
        | _ -> ()
      done;
      let elapsed = float_of_int (Obs.Span.now_ns () - start) *. 1e-9 in
      let resets = ref 0 in
      for p = 0 to paths - 1 do
        resets := !resets + Fleet.Path_state.resets (Fleet.Scheduler.path sched p)
      done;
      Printf.printf
        "fleet: %d paths, %d epochs of %d observations, lambda %.2f, %d domain%s\n"
        paths epochs epoch_len lambda domains
        (if domains = 1 then "" else "s");
      List.iter
        (fun (c, count) ->
          if count > 0 then
            Printf.printf "  %-18s %d\n" (Dcl.Identify.verdict_name c) count)
        (conclusion_counts sched);
      Printf.printf "transitions: %d, model resets: %d\n" !transitions !resets;
      (match Fleet.Scheduler.gate_stats sched with
      | None -> ()
      | Some gs ->
          Printf.printf
            "gate: %d promoted (%d promotions, %d demotions), %d observations \
             absorbed sketch-only\n"
            gs.Fleet.Scheduler.promoted gs.Fleet.Scheduler.promotions
            gs.Fleet.Scheduler.demotions gs.Fleet.Scheduler.sketch_only_observations);
      (* Against synthetic ground truth, score agreement over decided
         paths and recall over the truly congested ones — the number the
         gate must not cost. *)
      (match Fleet.Source.ground_truth src 0 with
      | None -> ()
      | Some _ ->
          let agree = ref 0 and decided = ref 0 in
          let dominant = ref 0 and recalled = ref 0 in
          for p = 0 to paths - 1 do
            (match (Fleet.Scheduler.conclusion sched p, Fleet.Source.ground_truth src p) with
            | Some concl, Some truth ->
                incr decided;
                if (concl <> Dcl.Identify.No_dominant) = truth then incr agree
            | _ -> ());
            match Fleet.Source.ground_truth src p with
            | Some true ->
                incr dominant;
                (match Fleet.Scheduler.conclusion sched p with
                | Some Dcl.Identify.Strongly_dominant
                | Some Dcl.Identify.Weakly_dominant ->
                    incr recalled
                | _ -> ())
            | _ -> ()
          done;
          if !decided > 0 then
            Printf.printf "ground truth agreement: %d/%d (%.1f%%)\n" !agree !decided
              (100. *. float_of_int !agree /. float_of_int !decided);
          if !dominant > 0 then
            Printf.printf "dominant-path recall: %d/%d (%.1f%%)\n" !recalled !dominant
              (100. *. float_of_int !recalled /. float_of_int !dominant));
      Printf.printf "%.3f s wall, %.0f path-updates/s\n" elapsed
        (float_of_int (paths * epochs) /. elapsed);
      (* Keep the endpoint alive for scrapers that arrive after the run
         body finishes (CI smoke tests, a human with a browser). *)
      (match admin with
      | Some _ when linger > 0. ->
          Printf.printf "admin: lingering %.1f s\n%!" linger;
          let deadline = Obs.Span.now_ns () + int_of_float (linger *. 1e9) in
          while Obs.Span.now_ns () < deadline do
            serve ();
            Unix.sleepf 0.05
          done
      | _ -> ());
      0

let paths_arg =
  Arg.(
    value & opt Obs_cli.positive_int 1000
    & info [ "paths" ] ~docv:"N" ~doc:"Number of concurrently monitored paths.")

let epochs_arg =
  Arg.(
    value & opt Obs_cli.positive_int 20
    & info [ "epochs" ] ~docv:"N" ~doc:"Number of epoch ticks to run.")

let epoch_arg =
  Arg.(
    value & opt Obs_cli.positive_int 16
    & info [ "epoch" ] ~docv:"OBS"
        ~doc:"Observations appended to each path per epoch tick (at least 1).")

let lambda_arg =
  Arg.(
    value
    & opt (Obs_cli.float_range ~lo_exclusive:true ~lo:0. ~hi:1. ~what:"--lambda" ()) 0.9
    & info [ "lambda" ] ~docv:"L"
        ~doc:
          "Forgetting factor applied to each path's sufficient statistics every \
           epoch, in (0, 1]; 1.0 never forgets.")

let n_arg =
  Arg.(
    value & opt Obs_cli.positive_int 2
    & info [ "n"; "hidden-states" ] ~docv:"N" ~doc:"Hidden states of the per-path MMHD.")

let m_arg =
  Arg.(
    value & opt (Obs_cli.int_at_least 3) 5
    & info [ "m"; "symbols" ] ~docv:"M" ~doc:"Number of delay symbols (at least 3).")

let domains_arg =
  Arg.(
    value & opt Obs_cli.positive_int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Pool domains updating paths in parallel; results are bit-identical \
           to the serial run.")

let source_arg =
  Arg.(
    value & opt source_conv "synth"
    & info [ "source" ] ~docv:"SRC"
        ~doc:
          "Observation source: $(b,synth) (shared ground-truth templates), \
           $(b,sim) (a fresh strongly-dominant netsim run, replayed), or a \
           probe trace file to replay.")

let congested_arg =
  Arg.(
    value
    & opt
        (Obs_cli.float_range ~lo:0. ~hi:1. ~what:"--congested-fraction" ())
        0.3
    & info [ "congested-fraction" ] ~docv:"F"
        ~doc:
          "Fraction of synthetic templates with a dominant congested link, in \
           [0, 1].")

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let gate_arg =
  Arg.(
    value & flag
    & info [ "gate" ]
        ~doc:
          "Enable the sketch triage front end: quiet paths are tracked only by \
           O(1) streaming estimators and full per-path inference runs only on \
           paths the gate promotes.")

let gate_loss_arg =
  Arg.(
    value & opt (Obs_cli.nonneg_float ~what:"--gate-loss") 0.2
    & info [ "gate-loss" ] ~docv:"F"
        ~doc:"Loss-EWMA promotion threshold (fraction of probes lost per epoch).")

let gate_drift_arg =
  Arg.(
    value & opt (Obs_cli.nonneg_float ~what:"--gate-drift") 0.75
    & info [ "gate-drift" ] ~docv:"F"
        ~doc:
          "Delay-quantile-drift promotion threshold: elevation of the tracked \
           quantile above the propagation floor, in [0, 1].")

let gate_h_arg =
  Arg.(
    value & opt Obs_cli.positive_int 2
    & info [ "gate-h" ] ~docv:"H"
        ~doc:"Consecutive suspect epochs required before promotion (hysteresis).")

let gate_demote_arg =
  Arg.(
    value & opt Obs_cli.positive_int 4
    & info [ "gate-demote" ] ~docv:"D"
        ~doc:
          "Consecutive calm, no-dominant-concluded epochs required before a \
           promoted path demotes back to sketch-only tracking.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ] ~doc:"Print every per-path conclusion transition.")

let port_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected a port number, got %S" s))
    | Some v when v < 0 || v > 65535 ->
        Error (`Msg (Printf.sprintf "%d is outside the port range [0, 65535]" v))
    | Some v -> Ok v
  in
  Arg.conv ~docv:"PORT" (parse, Format.pp_print_int)

let listen_arg =
  Arg.(
    value
    & opt (some port_conv) None
    & info [ "listen" ] ~docv:"PORT"
        ~doc:
          "Serve a live introspection endpoint on 127.0.0.1:$(docv) while the \
           run progresses: $(b,/healthz), $(b,/metrics) (Prometheus), \
           $(b,/paths) (fleet summary), $(b,/paths/)$(i,ID) (per-path \
           diagnosis timeline as JSON), $(b,/trace) (flight-recorder dump as \
           Chrome trace-event JSON).  Port 0 picks an ephemeral port, printed \
           at startup.  Implies metrics collection.")

let metrics_interval_arg =
  Arg.(
    value & opt Obs_cli.positive_int 1
    & info [ "metrics-interval" ] ~docv:"N"
        ~doc:
          "Flush the $(b,--metrics) file every $(docv) epochs (default: every \
           epoch), so a crashed or killed run still leaves a snapshot behind.  \
           Stdout dumps ($(b,--metrics -)) are only written on exit.")

let linger_arg =
  Arg.(
    value
    & opt (Obs_cli.nonneg_float ~what:"--linger") 0.
    & info [ "linger" ] ~docv:"SECONDS"
        ~doc:
          "Keep the $(b,--listen) endpoint serving for $(docv) seconds after \
           the run completes.")

let cmd =
  let doc = "monitor a fleet of paths with streaming DCL identification" in
  Cmd.v
    (Cmd.info "dcl-fleetd" ~doc)
    Term.(
      const run $ paths_arg $ epochs_arg $ epoch_arg $ lambda_arg $ n_arg $ m_arg
      $ domains_arg $ source_arg $ congested_arg $ seed_arg $ gate_arg
      $ gate_loss_arg $ gate_drift_arg $ gate_h_arg $ gate_demote_arg
      $ verbose_arg $ Obs_cli.metrics_arg $ Obs_cli.trace_arg $ listen_arg
      $ metrics_interval_arg $ linger_arg)

let () = exit (Cmd.eval' cmd)
