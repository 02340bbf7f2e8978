(* identify-paper: a closed loop of Dcl.Identify.run, one call per
   trace, over six fixed paper traces (Tables II-IV, adaptive RED, two
   emulated Internet paths).  The traces use the library's default
   scenario seeds and every call gets a fresh [Stats.Rng.create 1], so
   each pass repeats exactly the same work; [--seed] only permutes the
   order in which a pass visits the traces. *)

type case = {
  name : string;
  trace : Probe.Trace.t;  (** what identification sees *)
  truth : Dcl.Truth.regime;  (** from the true-clock trace *)
  probes : int;
}

type generation = {
  cases : case list;
  setup_s : float;  (** generation time at the reference host speed *)
  run_s : float;
  repair_s : float;
  sim_events : float;
}

(* Each trace's generation is timed between two host-speed probes, so a
   phase change of the host within one set-up touches one trace's share
   only. *)
let generate speed spans =
  let events0 = Measure.counter "dcl_sim_events_total" in
  let run_ns = ref 0 and repair_ns = ref 0 in
  let timed acc name f =
    let t0 = Measure.now_ns () in
    let v = Spans.with_span spans ~op:(-1) name f in
    acc := !acc + (Measure.now_ns () - t0);
    v
  in
  let topology name config () =
    let o = timed run_ns "scenarios.run" (fun () -> Scenarios.Paper_topology.run config) in
    let trace = o.Scenarios.Paper_topology.trace in
    { name; trace; truth = Dcl.Truth.classify trace ~hop_count:5; probes = Probe.Trace.length trace }
  in
  let internet name kind () =
    let o = timed run_ns "scenarios.run" (fun () -> Scenarios.Internet.run ~duration:600. kind) in
    let repaired, _skew =
      timed repair_ns "clocksync.repair" (fun () ->
          Scenarios.Internet.repair_clock o.Scenarios.Internet.skewed)
    in
    let truth =
      Dcl.Truth.classify o.Scenarios.Internet.trace ~hop_count:(Scenarios.Internet.hop_count kind)
    in
    { name; trace = repaired; truth; probes = Probe.Trace.length repaired }
  in
  let duration = 300. in
  let bw3 = List.hd Scenarios.Presets.strongly_dcl_sweep in
  let intervals = ref [] in
  let cases =
    List.map
      (fun make ->
        let before = Host_speed.measure speed in
        let t0 = Measure.now_ns () in
        let c = make () in
        let dt = Measure.seconds_since t0 in
        intervals := (dt, 0.5 *. (before +. Host_speed.measure speed)) :: !intervals;
        c)
      [
        topology "table2-strongly" (Scenarios.Presets.strongly_dcl ~duration ~bw3 ());
        topology "table3-weakly" (Scenarios.Presets.weakly_dcl ~duration ());
        topology "table4-nodcl" (Scenarios.Presets.no_dcl ~duration ());
        topology "red-weakly"
          (Scenarios.Presets.with_red ~min_th_frac:0.2 (Scenarios.Presets.weakly_dcl ~duration ()));
        internet "cornell-ufpr" Scenarios.Internet.Ethernet_ufpr;
        internet "snu-adsl" Scenarios.Internet.Adsl_from_snu;
      ]
  in
  {
    cases;
    setup_s = Measure.sum (List.map Host_speed.rescale !intervals);
    run_s = Measure.ns_to_s !run_ns;
    repair_s = Measure.ns_to_s !repair_ns;
    sim_events = Measure.counter "dcl_sim_events_total" -. events0;
  }

type verdict = {
  conclusion : Dcl.Identify.conclusion;
  log_likelihood : float;
  finite : bool;  (** every verdict statistic is a finite number *)
  skipped_restarts : int;
}

let verdict ~log_likelihood ~skipped_restarts (v : Dcl.Identify.verdicts) =
  {
    conclusion = v.Dcl.Identify.conclusion;
    log_likelihood;
    skipped_restarts;
    finite =
      Float.is_finite log_likelihood
      && Measure.finite_outcome v.Dcl.Identify.sdcl
      && Measure.finite_outcome v.Dcl.Identify.wdcl
      && Option.fold ~none:true ~some:Float.is_finite v.Dcl.Identify.bound;
  }

(* One op.  Untraced it is exactly [Identify.run]; traced it makes the
   same two public calls [run] is made of, each in its own span. *)
let identify spans ~op case =
  let rng = Stats.Rng.create 1 in
  match
    if Spans.enabled spans then
      Spans.with_span spans ~op "dcl.identify" (fun () ->
          let vqd, (stats : Em.fit_stats) =
            Spans.with_span spans ~op "dcl.fit_vqd" (fun () -> Dcl.Identify.fit_vqd ~rng case.trace)
          in
          let v = Spans.with_span spans ~op "dcl.conclude" (fun () -> Dcl.Identify.conclude vqd) in
          verdict ~log_likelihood:stats.Em.log_likelihood
            ~skipped_restarts:stats.Em.skipped_restarts v)
    else
      let r = Dcl.Identify.run ~rng case.trace in
      verdict ~log_likelihood:r.Dcl.Identify.log_likelihood
        ~skipped_restarts:r.Dcl.Identify.em_skipped_restarts
        {
          Dcl.Identify.sdcl = r.Dcl.Identify.sdcl;
          wdcl = r.Dcl.Identify.wdcl;
          conclusion = r.Dcl.Identify.conclusion;
          bound = r.Dcl.Identify.bound;
        }
  with
  | v -> Some v
  | exception e ->
      Printf.eprintf "identify-paper: %s raised %s\n%!" case.name (Printexc.to_string e);
      None

let agrees truth conclusion =
  match (truth, conclusion) with
  | Dcl.Truth.Strong, Dcl.Identify.Strongly_dominant
  | Dcl.Truth.Weak _, Dcl.Identify.Weakly_dominant
  | Dcl.Truth.No_dominant, Dcl.Identify.No_dominant ->
      true
  | _ -> false

let dominant_truth = function Dcl.Truth.Strong | Dcl.Truth.Weak _ -> true | Dcl.Truth.No_dominant -> false

let dominant_conclusion = function
  | Dcl.Identify.Strongly_dominant | Dcl.Identify.Weakly_dominant -> true
  | Dcl.Identify.No_dominant -> false

let permutation ~seed n =
  let rng = Stats.Rng.create seed in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Stats.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let setups = 3
let min_passes = 3
let em_iterations = Obs.Counter.make "dcl_em_iterations_total"

(* The recorded baseline: the SNU->ADSL trace at 600 s is concluded
   strongly dominant against a no-DCL truth, so 5 of 6 traces agree.
   Fewer is a regression. *)
let baseline_agreement = 5. /. 6.

type pass_stats = {
  mutable passes : int;
  mutable ops : int;
  mutable failed : int;
  mutable mismatched : int;  (** ops whose result differs from the warm pass *)
  mutable obs_iters : float;  (** probes x EM iterations, counted while Obs is on *)
  per_case : (float * float) list array;
      (** per op: time as measured, mean of the host-speed probes around it *)
  mutable host_probes : float list;
}

let new_stats n =
  {
    passes = 0;
    ops = 0;
    failed = 0;
    mismatched = 0;
    obs_iters = 0.;
    per_case = Array.make n [];
    host_probes = [];
  }

(* Run whole passes until [until_s] seconds of the phase have gone and
   at least [min] passes are done.  A host-speed probe runs between
   consecutive ops, outside their timed regions. *)
let passes speed spans cases order reference stats ~until_s ~min =
  let t0 = Measure.now_ns () in
  let before = ref (Host_speed.measure speed) in
  stats.host_probes <- !before :: stats.host_probes;
  while stats.passes < min || Measure.seconds_since t0 < until_s do
    Array.iter
      (fun i ->
        let case = cases.(i) in
        let iters0 = Obs.Counter.value em_iterations in
        let start = Measure.now_ns () in
        let r = identify spans ~op:stats.ops case in
        let dt = Measure.seconds_since start in
        let after = Host_speed.measure speed in
        stats.host_probes <- after :: stats.host_probes;
        stats.obs_iters <-
          stats.obs_iters
          +. (float_of_int case.probes *. (Obs.Counter.value em_iterations -. iters0));
        stats.ops <- stats.ops + 1;
        stats.per_case.(i) <- (dt, 0.5 *. (!before +. after)) :: stats.per_case.(i);
        before := after;
        match (r, reference.(i)) with
        | Some v, Some ref_v when v.finite ->
            if v.conclusion <> ref_v.conclusion || not (Float.equal v.log_likelihood ref_v.log_likelihood)
            then stats.mismatched <- stats.mismatched + 1
        | _ -> stats.failed <- stats.failed + 1)
      order;
    stats.passes <- stats.passes + 1
  done

(* Each trace's op time over the run's passes, at the reference host
   speed.  Raw times follow the host's phases: over ten 30 s runs the
   best raw op time per trace had quartile spreads of 0.15-0.26.  Over
   30 s windows of one long run, the longest trace's rescaled time had
   a spread of 0.05, against 0.13 for the median of per-op rescaled
   times. *)
let case_times stats = Array.to_list (Array.map Host_speed.mean_at_reference stats.per_case)

(* One pass over the six traces. *)
let pass_s stats = Measure.sum (case_times stats)

(* The same from raw times: the sum of each trace's median op time. *)
let raw_pass_s stats =
  Measure.sum (Array.to_list (Array.map (fun ops -> Measure.median (List.map fst ops)) stats.per_case))

let run ~seed ~seconds ~trace =
  let spans = Spans.create () in
  if trace then begin
    Obs.set_enabled true;
    Spans.set_enabled spans true
  end;
  (* Each set-up generates the traces afresh; only the last set stays
     alive, so the measured passes see the live heap of one set. *)
  let speed = Host_speed.create () in
  let gens = ref [] and last = ref None in
  for _ = 1 to setups do
    last := None;
    Gc.full_major ();
    let g = generate speed spans in
    gens := { g with cases = [] } :: !gens;
    last := Some g
  done;
  let gens = !gens and gen = Option.get !last in
  let cases = Array.of_list gen.cases in
  let n = Array.length cases in
  let probes_per_pass = Array.fold_left (fun acc c -> acc + c.probes) 0 cases in
  Obs.set_enabled false;
  Spans.set_enabled spans false;
  (* Untimed warm pass: fixes the reference verdicts every later op is
     checked against. *)
  let reference = Array.map (identify spans ~op:(-1)) cases in
  let setup_s = Measure.median (List.map (fun g -> g.setup_s) gens) in
  let order = permutation ~seed n in
  let plain = new_stats n in
  let traced = new_stats n in
  let layer = ref [] in
  if not trace then passes speed spans cases order reference plain ~until_s:seconds ~min:min_passes
  else begin
    passes speed spans cases order reference plain ~until_s:(seconds /. 2.) ~min:1;
    let stage s = Measure.histogram_sum ~labels:[ ("stage", s) ] "dcl_identify_stage_seconds" in
    let stages = [ "discretize"; "fit"; "vqd"; "tests"; "bound" ] in
    let stage0 = List.map stage stages in
    let iters0 = Obs.Counter.value em_iterations in
    let gc0 = Measure.gc () in
    Obs.Trace.set_capacity 32768;
    Obs.Trace.set_enabled true;
    Obs.set_enabled true;
    Spans.set_enabled spans true;
    passes speed spans cases order reference traced ~until_s:(seconds /. 2.) ~min:1;
    Spans.set_enabled spans false;
    Obs.set_enabled false;
    Obs.Trace.set_enabled false;
    let gc1 = Measure.gc () in
    let per_pass x = x /. float_of_int traced.passes in
    let self = Spans.self_times spans in
    let iterations = Obs.Counter.value em_iterations -. iters0 in
    let stage_s = List.map2 (fun s s0 -> (s, stage s -. s0)) stages stage0 in
    let skipped =
      Array.fold_left
        (fun acc r -> acc + Option.fold ~none:0 ~some:(fun v -> v.skipped_restarts) r)
        0 reference
    in
    let median_of f = Measure.median (List.map f gens) in
    let run_s = median_of (fun g -> g.run_s) in
    layer :=
      [
        ("dcl.fit_vqd_s", per_pass (self "dcl.fit_vqd"));
        ("dcl.conclude_s", per_pass (self "dcl.conclude"));
        ("em.iterations", per_pass iterations);
        ("em.ns_per_obs_iter", 1e9 *. List.assoc "fit" stage_s /. traced.obs_iters);
        ("em.skipped_restarts", float_of_int skipped);
        ("scenarios.run_s", run_s);
        ("netsim.events_per_s", median_of (fun g -> g.sim_events /. g.run_s));
        ("clocksync.repair_s", median_of (fun g -> g.repair_s));
        ( "gc.minor_words_per_obs",
          (gc1.Measure.minor_words -. gc0.Measure.minor_words)
          /. float_of_int (probes_per_pass * traced.passes) );
        ( "gc.major_collections",
          per_pass (float_of_int (gc1.Measure.major_collections - gc0.Measure.major_collections)) );
        ("trace.overhead_ratio", pass_s traced /. pass_s plain);
      ]
      @ List.map (fun (s, v) -> ("dcl.stage." ^ s ^ "_s", per_pass v)) stage_s;
    Measure.write_traces ~base:(Printf.sprintf "identify-paper.seed%d" seed) (Spans.chrome_json spans)
  end;
  let scored = Array.map2 (fun c r -> (c, r)) cases reference in
  Array.iter
    (fun (c, r) ->
      Format.printf "%-16s %6d probes  truth: %a  verdict: %s%s@." c.name c.probes Dcl.Truth.pp_regime
        c.truth
        (match r with Some v -> Dcl.Identify.conclusion_to_string v.conclusion | None -> "failed")
        (match r with Some v when agrees c.truth v.conclusion -> "" | _ -> "  [disagrees]"))
    scored;
  let count p = Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 scored in
  let concluded p (c, r) = match r with Some v -> p c v.conclusion | None -> false in
  let agreeing = count (concluded (fun c k -> agrees c.truth k)) in
  let dominant = count (fun (c, _) -> dominant_truth c.truth) in
  let recalled = count (concluded (fun c k -> dominant_truth c.truth && dominant_conclusion k)) in
  let agreement = Measure.ratio agreeing n in
  let attempted = n + plain.ops + traced.ops in
  let failed =
    plain.failed + traced.failed
    + Array.fold_left (fun acc r -> match r with Some v when v.finite -> acc | _ -> acc + 1) 0 reference
  in
  let mismatched = plain.mismatched + traced.mismatched in
  if mismatched > 0 then
    Printf.eprintf "identify-paper: %d ops differ from the warm pass on the same trace\n" mismatched;
  if agreement < baseline_agreement then
    Printf.eprintf "identify-paper: verdict agreement %d/%d is below the recorded 5/6 baseline\n" agreeing n;
  let pass = pass_s plain in
  {
    Measure.correct = failed = 0 && mismatched = 0 && agreement >= baseline_agreement;
    attempted;
    failed;
    end_to_end =
      [
        ("setup_s", setup_s);
        ("identify_pass_s", pass);
        ("ingest_obs_per_s", float_of_int probes_per_pass /. pass);
        ("epoch_p50_s", Measure.quantile (case_times plain) 0.5);
        ("epoch_p90_s", Measure.quantile (case_times plain) 0.9);
        ("verdict_agreement", agreement);
        ("dominant_recall", Measure.ratio recalled dominant);
        ("peak_rss_mb", Measure.peak_rss_mb ());
      ];
    per_layer = ("fail_ratio", Measure.ratio failed attempted) :: !layer;
    env =
      [
        ("domains", "1");
        ("traces", string_of_int n);
        ("probes_per_pass", string_of_int probes_per_pass);
        ("setup_repeats", string_of_int setups);
        ("warm_passes", "1");
        ("passes", string_of_int plain.passes);
        ("traced_passes", string_of_int traced.passes);
        ("quantile_samples", string_of_int n);
        ("samples_per_trace", string_of_int plain.passes);
        ("host_reference_s", Measure.json_float Host_speed.reference_s);
        ("host_probe_median_s", Measure.json_float (Measure.median plain.host_probes));
        ("raw_pass_s", Measure.json_float (raw_pass_s plain));
      ];
  }
