type model = Model_mmhd | Model_hmm

type params = {
  model : model;
  n : int;
  m : int;
  em_eps : float;
  prop_delay : Discretize.prop_delay;
  beta : float;
  eps : float;
}

let default_params =
  {
    model = Model_mmhd;
    n = 2;
    m = 5;
    em_eps = 1e-3;
    prop_delay = Discretize.From_trace;
    beta = 0.06;
    eps = 0.;
  }

(* Statistical slack of the WDCL test.  The model-based estimate of F
   systematically sits a few percent below the dominant link's true
   loss share: the posterior of a lost probe is informed by nearby
   surviving probes, which by construction saw a just-below-full
   buffer, so a little probability mass leaks to neighbouring symbols.
   This slack absorbs that bias plus sampling noise.  The SDCL test
   keeps Tests' default tolerance, 0.005. *)
let wdcl_tolerance = 0.04

type conclusion = Strongly_dominant | Weakly_dominant | No_dominant

(* Pipeline telemetry: one latency histogram per stage (shared family,
   distinguished by the [stage] label) and a completed-runs counter.
   All no-ops while Obs collection is disabled. *)
let h_stage stage =
  Obs.Histogram.make
    ~labels:[ ("stage", stage) ]
    ~help:"Per-stage latency of the identification pipeline"
    "dcl_identify_stage_seconds"

let h_discretize = h_stage "discretize"
let h_fit = h_stage "fit"
let h_vqd = h_stage "vqd"
let h_tests = h_stage "tests"
let h_bound = h_stage "bound"

let m_runs =
  Obs.Counter.make ~help:"Completed Identify.run pipelines"
    "dcl_identify_runs_total"

type result = {
  params : params;
  scheme : Discretize.t;
  vqd : Vqd.t;
  sdcl : Tests.outcome;
  wdcl : Tests.outcome;
  conclusion : conclusion;
  bound : float option;
  loss_rate : float;
  observations : int;
  em_iterations : int;
  log_likelihood : float;
  em_converged : bool;
  em_skipped_restarts : int;
}

let identifiable trace =
  Probe.Trace.losses trace > 0
  && Probe.Trace.length trace > Probe.Trace.losses trace
  && Probe.Trace.max_delay trace > Probe.Trace.min_delay trace

let model_pmf params ~rng symbols =
  let fit =
    match params.model with
    | Model_mmhd -> Mmhd.fit ~n:params.n
    | Model_hmm -> Hmm.fit ~n:params.n
  in
  let fit0 = Obs.Span.start () in
  let model, stats = fit ~eps:params.em_eps ~rng ~m:params.m symbols in
  Obs.Span.stop h_fit fit0;
  let vqd0 = Obs.Span.start () in
  let pmf = Em.virtual_delay_pmf ~ws:(Em.domain_ws ()) model symbols in
  Obs.Span.stop h_vqd vqd0;
  (pmf, stats)

let fit_vqd ?(params = default_params) ~rng trace =
  if not (identifiable trace) then
    invalid_arg "Identify: trace has no loss or no delay spread";
  let disc0 = Obs.Span.start () in
  let scheme = Discretize.of_trace ~m:params.m ~prop_delay:params.prop_delay trace in
  let symbols = Discretize.symbolize scheme trace in
  Obs.Span.stop h_discretize disc0;
  let pmf, stats = model_pmf params ~rng symbols in
  (Vqd.of_pmf scheme pmf, stats)

(* The back half of the pipeline — hypothesis tests plus the bound —
   factored out of [run] so callers holding a VQD from another source
   (notably the fleet layer's streaming sufficient statistics) can
   re-test without refitting a trace. *)
type verdicts = {
  sdcl : Tests.outcome;
  wdcl : Tests.outcome;
  conclusion : conclusion;
  bound : float option;
}

let conclude ?(params = default_params) vqd =
  let tests0 = Obs.Span.start () in
  let sdcl = Tests.sdcl vqd in
  let wdcl = Tests.wdcl ~tolerance:wdcl_tolerance ~beta:params.beta ~eps:params.eps vqd in
  Obs.Span.stop h_tests tests0;
  let conclusion =
    match (sdcl.Tests.verdict, wdcl.Tests.verdict) with
    | Tests.Accept, _ -> Strongly_dominant
    | Tests.Reject, Tests.Accept -> Weakly_dominant
    | Tests.Reject, Tests.Reject -> No_dominant
  in
  let bound0 = Obs.Span.start () in
  let bound =
    match conclusion with
    | Strongly_dominant -> Some (Bound.sdcl_bound vqd)
    | Weakly_dominant -> Some (Bound.wdcl_bound ~beta:params.beta vqd)
    | No_dominant -> None
  in
  Obs.Span.stop h_bound bound0;
  { sdcl; wdcl; conclusion; bound }

let run ?(params = default_params) ~rng trace =
  let vqd, (stats : Em.fit_stats) = fit_vqd ~params ~rng trace in
  let v = conclude ~params vqd in
  Obs.Counter.incr m_runs;
  {
    params;
    scheme = vqd.Vqd.scheme;
    vqd;
    sdcl = v.sdcl;
    wdcl = v.wdcl;
    conclusion = v.conclusion;
    bound = v.bound;
    loss_rate = Probe.Trace.loss_rate trace;
    observations = Probe.Trace.length trace;
    em_iterations = stats.Em.iterations;
    log_likelihood = stats.Em.log_likelihood;
    em_converged = stats.Em.converged;
    em_skipped_restarts = stats.Em.skipped_restarts;
  }

let verdict_name = function
  | None -> "untested"
  | Some Strongly_dominant -> "strongly-dominant"
  | Some Weakly_dominant -> "weakly-dominant"
  | Some No_dominant -> "no-dominant"

let conclusion_to_string = function
  | Strongly_dominant -> "strongly dominant congested link"
  | Weakly_dominant -> "weakly dominant congested link"
  | No_dominant -> "no dominant congested link"

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "@[<v>conclusion: %s@,SDCL-Test: %a@,WDCL-Test(beta=%.2f,eps=%.2f): %a@,"
    (conclusion_to_string r.conclusion) Tests.pp_outcome r.sdcl r.params.beta r.params.eps
    Tests.pp_outcome r.wdcl;
  (match r.bound with
  | Some b -> Format.fprintf ppf "Q_max upper bound: %.1f ms@," (1000. *. b)
  | None -> ());
  Format.fprintf ppf
    "loss rate: %.2f%%, probes: %d, EM: %d sweeps (%s), logL=%.1f"
    (100. *. r.loss_rate) r.observations r.em_iterations
    (if r.em_converged then "converged" else "max-iter")
    r.log_likelihood;
  if r.em_skipped_restarts > 0 then
    Format.fprintf ppf ", %d degenerate restart%s skipped" r.em_skipped_restarts
      (if r.em_skipped_restarts = 1 then "" else "s");
  Format.fprintf ppf "@]"
