(* dcl-identify: run the model-based dominant-congested-link
   identification on a recorded probe trace.

     dcl-identify probe.trace
     dcl-identify --model hmm --hidden-states 3 --beta 0.02 probe.trace *)

open Cmdliner

let models = [ ("mmhd", Dcl.Identify.Model_mmhd); ("hmm", Dcl.Identify.Model_hmm) ]

let run file model n m beta eps prop_delay seed fine_bound metrics =
  Obs_cli.with_metrics metrics @@ fun () ->
  match Probe.Trace.load file with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok trace ->
      Printf.printf "trace: %d probes over %.0f s, loss rate %.3f%%\n"
        (Probe.Trace.length trace)
        (Probe.Trace.duration trace)
        (100. *. Probe.Trace.loss_rate trace);
      (* The method assumes stationary loss/delay characteristics
         (Section III); warn when the trace drifts.  Only the expected
         too-few-probes rejection is silent — any other failure of the
         check is itself worth a warning, not a swallow. *)
      (if Probe.Trace.length trace >= 8 then
         match Dcl.Stationarity.check trace with
         | report ->
             if not report.Dcl.Stationarity.stationary then
               Format.printf "warning: %a@." Dcl.Stationarity.pp_report report
         | exception Invalid_argument msg
           when msg = "Stationarity.check: trace too short" ->
             ()
         | exception Invalid_argument msg ->
             Format.printf "warning: stationarity check failed: %s@." msg);
      if not (Dcl.Identify.identifiable trace) then begin
        prerr_endline
          "trace is not identifiable: it needs at least one loss, one surviving probe, and \
           a positive delay spread";
        1
      end
      else
        match prop_delay with
        | Some p when Stats.Float_cmp.geq p (Probe.Trace.max_delay trace) ->
            Printf.eprintf
              "--propagation-delay %g s leaves no delay spread: it must be below the \
               trace's largest delay (observed delays span [%g, %g] s)\n"
              p (Probe.Trace.min_delay trace) (Probe.Trace.max_delay trace);
            1
        | _ ->
            let params =
              {
                Dcl.Identify.default_params with
                model;
                n;
                m;
                beta;
                eps;
                prop_delay =
                  (match prop_delay with
                  | Some p -> Dcl.Discretize.Known p
                  | None -> Dcl.Discretize.From_trace);
              }
            in
            let rng = Stats.Rng.create seed in
            let result = Dcl.Identify.run ~params ~rng trace in
            Format.printf "%a@." Dcl.Identify.pp_result result;
            Format.printf "inferred virtual queuing delay distribution: %a@." Dcl.Vqd.pp
              result.Dcl.Identify.vqd;
            if fine_bound && result.Dcl.Identify.conclusion <> Dcl.Identify.No_dominant
            then begin
              let fine = { params with Dcl.Identify.m = 40 } in
              let vqd40, _ = Dcl.Identify.fit_vqd ~params:fine ~rng trace in
              Printf.printf "fine-grained (M=40) component bound on Q_max: %.1f ms\n"
                (1000. *. Dcl.Bound.component_bound vqd40)
            end;
            (* If the trace carries simulator ground truth, report it. *)
            if Array.length (Probe.Trace.truth_virtual_delays trace) > 0 then begin
              let hops = trace.Probe.Trace.hop_count in
              Format.printf "ground truth (from simulation): %a@." Dcl.Truth.pp_regime
                (Dcl.Truth.classify trace ~hop_count:hops);
              let truth = Dcl.Vqd.of_trace_truth result.Dcl.Identify.scheme trace in
              Format.printf "true virtual queuing delay distribution:     %a@." Dcl.Vqd.pp
                truth;
              Printf.printf "total-variation distance model vs truth: %.3f\n"
                (Dcl.Vqd.tv_distance truth result.Dcl.Identify.vqd)
            end;
            0

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Probe trace file.")

let model_arg =
  Arg.(
    value
    & opt (enum models) Dcl.Identify.Model_mmhd
    & info [ "model" ] ~docv:"NAME" ~doc:
        "Inference model: mmhd or hmm.  $(b,--model mmhd -n 1) is the plain Markov \
         model, without a hidden dimension.")

let n_arg =
  Arg.(
    value & opt Obs_cli.positive_int 2
    & info [ "n"; "hidden-states" ] ~docv:"N" ~doc:"Number of hidden states (at least 1).")

let m_arg =
  Arg.(
    value & opt (Obs_cli.int_at_least 3) 5
    & info [ "m"; "symbols" ] ~docv:"M" ~doc:"Number of delay symbols (at least 3).")

let beta_arg =
  Arg.(
    value
    & opt (Obs_cli.float_range ~hi_exclusive:true ~lo:0. ~hi:0.5 ~what:"--beta" ()) 0.06
    & info [ "beta" ] ~docv:"B"
        ~doc:"WDCL loss parameter (share of off-link losses), in [0, 1/2).")

let eps_arg =
  Arg.(
    value
    & opt (Obs_cli.float_range ~lo:0. ~hi:1. ~what:"--eps" ()) 0.
    & info [ "eps" ] ~docv:"E" ~doc:"WDCL delay parameter, in [0, 1].")

let prop_arg =
  Arg.(
    value
    & opt (some (Obs_cli.nonneg_float ~what:"--propagation-delay")) None
    & info [ "propagation-delay" ] ~docv:"SECONDS"
        ~doc:
          "Known end-end propagation delay, finite, non-negative and below the \
           trace's largest delay; by default it is estimated as the minimum \
           observed delay.")

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Random seed for the EM.")

let fine_arg =
  Arg.(
    value & flag
    & info [ "fine-bound" ]
        ~doc:"Also fit with M=40 symbols and report the component-heuristic Q_max bound.")

let cmd =
  let doc = "identify whether a dominant congested link exists from a probe trace" in
  Cmd.v
    (Cmd.info "dcl-identify" ~doc)
    Term.(
      const run $ file_arg $ model_arg $ n_arg $ m_arg $ beta_arg $ eps_arg $ prop_arg
      $ seed_arg $ fine_arg $ Obs_cli.metrics_arg)

let () = exit (Cmd.eval' cmd)
