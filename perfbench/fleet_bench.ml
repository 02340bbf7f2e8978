(* fleet-dense and fleet-sparse: a synthetic fleet driven in a closed
   loop the way dcl-fleetd drives it.  Each epoch the loop pulls every
   path's batch from the source (untimed), pushes the batches in
   ascending path order, then ticks; push+tick is the timed region, and
   a host-speed probe runs right before and right after it. *)

type config = {
  name : string;
  paths : int;
  congested_fraction : float;
  gated : bool;
  domains : int;
  epoch_len : int;
  lambda : float;
  warmup : int;  (** epochs run during set-up: the informed-init epochs *)
  checkpoint : int;
      (** epoch at which fingerprint, counts and verdict scores are taken,
          so they repeat exactly for a seed whatever the run length *)
  min_steady : int;  (** steady epochs measured at least, for p90's tail *)
}

let dense =
  {
    name = "fleet-dense";
    paths = 8192;
    congested_fraction = 0.3;
    gated = false;
    domains = 2;
    epoch_len = 64;
    lambda = 0.97;
    warmup = 4;
    checkpoint = 16;
    min_steady = 100;
  }

let sparse = { dense with name = "fleet-sparse"; paths = 16384; congested_fraction = 0.1; gated = true }

type fleet = {
  src : Fleet.Source.t;
  sched : Fleet.Scheduler.t;
  batches : Em.observation array array;
  mutable updates : int;  (** sum of [tick]'s return since creation *)
}

let create cfg ~seed ~domains =
  let rng = Stats.Rng.create seed in
  let src =
    Fleet.Source.synthetic ~congested_fraction:cfg.congested_fraction ~rng ~paths:cfg.paths ()
  in
  let config = Fleet.Path_state.config ~lambda:cfg.lambda ~scheme:(Fleet.Source.scheme src) () in
  let gate = if cfg.gated then Some (Sketch.Gate.config ()) else None in
  let sched = Fleet.Scheduler.create ~domains ?gate ~rng ~paths:cfg.paths config in
  { src; sched; batches = Array.make cfg.paths [||]; updates = 0 }

type epoch = {
  pull_s : float;
  push_s : float;
  tick_s : float;
  probe_s : float;  (** mean of the host-speed probes around push+tick *)
  updated : int;
}

let epoch speed spans cfg f =
  let op = Fleet.Scheduler.epoch f.sched in
  let t0 = Measure.now_ns () in
  Spans.with_span spans ~op "source.pull" (fun () ->
      for p = 0 to cfg.paths - 1 do
        f.batches.(p) <- Fleet.Source.pull f.src ~path:p ~len:cfg.epoch_len
      done);
  let before = Host_speed.measure speed in
  let t1 = Measure.now_ns () in
  Spans.with_span spans ~op "scheduler.push" (fun () ->
      for p = 0 to cfg.paths - 1 do
        Fleet.Scheduler.push f.sched ~path:p f.batches.(p)
      done);
  let t2 = Measure.now_ns () in
  let updated = Spans.with_span spans ~op "scheduler.tick" (fun () -> Fleet.Scheduler.tick f.sched) in
  let t3 = Measure.now_ns () in
  let after = Host_speed.measure speed in
  Array.fill f.batches 0 cfg.paths [||];
  f.updates <- f.updates + updated;
  {
    pull_s = Measure.ns_to_s (t1 - t0);
    push_s = Measure.ns_to_s (t2 - t1);
    tick_s = Measure.ns_to_s (t3 - t2);
    probe_s = 0.5 *. (before +. after);
    updated;
  }

(* Push+tick time of an epoch; the same at the reference host speed; the
   mean over epochs at the reference host speed. *)
let epoch_s e = e.push_s +. e.tick_s
let rescaled e = Host_speed.rescale (epoch_s e, e.probe_s)
let mean_rescaled es = Host_speed.mean_at_reference (List.map (fun e -> (epoch_s e, e.probe_s)) es)

(* Paths with a non-finite verdict statistic: weight, bound, VQD mass,
   or the SDCL/WDCL statistics re-derived from the path's VQD. *)
let non_finite_paths f =
  let bad = ref 0 in
  for p = 0 to Fleet.Scheduler.path_count f.sched - 1 do
    let ps = Fleet.Scheduler.path f.sched p in
    let ok =
      Float.is_finite (Fleet.Path_state.weight ps)
      && Option.fold ~none:true ~some:Float.is_finite (Fleet.Path_state.bound ps)
      &&
      match (Fleet.Path_state.conclusion ps, Fleet.Path_state.vqd ps) with
      | Some _, Some vqd ->
          Array.for_all Float.is_finite vqd.Dcl.Vqd.pmf
          &&
          let v = Dcl.Identify.conclude vqd in
          Measure.finite_outcome v.Dcl.Identify.sdcl && Measure.finite_outcome v.Dcl.Identify.wdcl
      | _ -> true
    in
    if not ok then incr bad
  done;
  !bad

let total_resets f =
  let r = ref 0 in
  for p = 0 to Fleet.Scheduler.path_count f.sched - 1 do
    r := !r + Fleet.Path_state.resets (Fleet.Scheduler.path f.sched p)
  done;
  !r

type snapshot = {
  fingerprint : string;
  agreement : float;  (** decided paths whose conclusion matches the template *)
  recall : float;  (** congested paths concluded dominant; undecided = miss *)
  updates : int;
  resets : int;
  non_finite : int;
  gate : Fleet.Scheduler.gate_stats option;
}

let snapshot f =
  let agree = ref 0 and decided = ref 0 and congested = ref 0 and recalled = ref 0 in
  for p = 0 to Fleet.Scheduler.path_count f.sched - 1 do
    let truth = Fleet.Source.ground_truth f.src p = Some true in
    let concl = Fleet.Scheduler.conclusion f.sched p in
    (match concl with
    | Some c ->
        incr decided;
        if (c <> Dcl.Identify.No_dominant) = truth then incr agree
    | None -> ());
    if truth then begin
      incr congested;
      match concl with
      | Some (Dcl.Identify.Strongly_dominant | Dcl.Identify.Weakly_dominant) -> incr recalled
      | Some Dcl.Identify.No_dominant | None -> ()
    end
  done;
  {
    fingerprint = Fleet.Scheduler.fingerprint f.sched;
    agreement = Measure.ratio !agree !decided;
    recall = Measure.ratio !recalled !congested;
    updates = f.updates;
    resets = total_resets f;
    non_finite = non_finite_paths f;
    gate = Fleet.Scheduler.gate_stats f.sched;
  }

let setups = 5

(* Floors on the checkpoint scores: far below what every seed reaches
   (agreement 0.87-0.88 dense, 0.999 sparse; recall 1.0), so they only
   trip on a real break. *)
let min_agreement = 0.8
let min_recall = 0.9

let run cfg ~seed ~seconds ~trace =
  let spans = Spans.create () in
  let speed = Host_speed.create () in
  let setup_times = ref [] and fleet = ref None in
  for _ = 1 to setups do
    fleet := None;
    Gc.full_major ();
    (* Creation and each warm-up epoch are rescaled as separate
       intervals, each by the probes closest to it. *)
    let before = Host_speed.measure speed in
    let t0 = Measure.now_ns () in
    let f = create cfg ~seed ~domains:cfg.domains in
    let created = (Measure.seconds_since t0, 0.5 *. (before +. Host_speed.measure speed)) in
    let warm =
      List.init cfg.warmup (fun _ ->
          let e = epoch speed spans cfg f in
          (e.pull_s +. epoch_s e, e.probe_s))
    in
    setup_times := Measure.sum (List.map Host_speed.rescale (created :: warm)) :: !setup_times;
    fleet := Some f
  done;
  let f = Option.get !fleet in
  let setup_s = Measure.median !setup_times in
  let updates_at_warmup = f.updates in
  let snap = ref None in
  let step () =
    let e = epoch speed spans cfg f in
    if Fleet.Scheduler.epoch f.sched = cfg.checkpoint then snap := Some (snapshot f);
    e
  in
  (* Epochs until [until_s] seconds have gone, at least [min] epochs
     are done and the checkpoint is behind us; newest first. *)
  let phase ~until_s ~min step =
    let t0 = Measure.now_ns () and acc = ref [] and n = ref 0 in
    while !n < min || Measure.seconds_since t0 < until_s || !snap = None do
      acc := step () :: !acc;
      incr n
    done;
    !acc
  in
  let plain, traced, layer =
    if not trace then (phase ~until_s:seconds ~min:cfg.min_steady step, [], [])
    else begin
      let plain = phase ~until_s:(seconds /. 2.) ~min:1 step in
      let obs = Measure.counter in
      let pool_wait () = Measure.histogram_sum "dcl_pool_queue_wait_seconds" in
      let stage s = Measure.histogram_sum ~labels:[ ("stage", s) ] "dcl_identify_stage_seconds" in
      let stages = [ "tests"; "bound" ] in
      let stage0 = List.map stage stages in
      let consumed0 = obs "dcl_fleet_observations_total" and busy0 = obs "dcl_pool_busy_seconds_total" in
      let wait0 = pool_wait () and iters0 = obs "dcl_em_iterations_total" in
      let gc0 = Measure.gc () in
      let append_s = ref 0. and utilization = ref [] and wrapped = ref false in
      Obs.Trace.set_capacity 32768;
      Obs.Trace.set_enabled true;
      Obs.set_enabled true;
      Spans.set_enabled spans true;
      (* The ring is read and cleared every epoch, outside the timed
         region, so it only has to hold one epoch's events. *)
      let traced =
        phase ~until_s:(seconds /. 2.) ~min:1 (fun () ->
            Obs.Trace.clear ();
            let e = step () in
            if Obs.Trace.emitted () > Obs.Trace.stored () then wrapped := true;
            append_s := !append_s +. Spans.obs_self_s "em.append";
            utilization := Measure.gauge "dcl_pool_utilization_ratio" :: !utilization;
            e)
      in
      Spans.set_enabled spans false;
      Obs.set_enabled false;
      Obs.Trace.set_enabled false;
      let gc1 = Measure.gc () in
      if !wrapped then
        prerr_endline "fleet: Obs.Trace ring wrapped within an epoch; em.append_s is a lower bound";
      let n = List.length traced in
      let per_epoch x = x /. float_of_int n in
      let self = Spans.self_times spans in
      let updated = List.fold_left (fun acc e -> acc + e.updated) 0 traced in
      let pushed = n * cfg.paths * cfg.epoch_len in
      let consumed = obs "dcl_fleet_observations_total" -. consumed0 in
      let tick = self "scheduler.tick" and push = self "scheduler.push" in
      let ingest es = float_of_int (cfg.paths * cfg.epoch_len) /. mean_rescaled es in
      let layer =
        [
          ("scheduler.tick_s", per_epoch tick);
          ("scheduler.push_s", per_epoch push);
          ("scheduler.ns_per_path_update", 1e9 *. tick /. float_of_int (max 1 updated));
          ("scheduler.push_ns_per_obs", 1e9 *. push /. float_of_int pushed);
          ("em.append_s", per_epoch !append_s);
          ("em.ns_per_obs_iter", if consumed > 0. then 1e9 *. !append_s /. consumed else 0.);
          ("em.iterations", per_epoch (obs "dcl_em_iterations_total" -. iters0));
          ( "gc.minor_words_per_obs",
            (gc1.Measure.minor_words -. gc0.Measure.minor_words) /. float_of_int pushed );
          ( "gc.major_collections",
            per_epoch (float_of_int (gc1.Measure.major_collections - gc0.Measure.major_collections)) );
          ("pool.queue_wait_s", per_epoch (pool_wait () -. wait0));
          ("pool.busy_s", per_epoch (obs "dcl_pool_busy_seconds_total" -. busy0));
          ("pool.utilization", Measure.mean !utilization);
          ("source.pull_s", per_epoch (self "source.pull"));
          ("trace.overhead_ratio", ingest plain /. ingest traced);
        ]
        @ List.map2 (fun s s0 -> ("dcl.stage." ^ s ^ "_s", per_epoch (stage s -. s0))) stages stage0
      in
      Measure.write_traces ~base:(Printf.sprintf "%s.seed%d" cfg.name seed) (Spans.chrome_json spans);
      (plain, traced, layer)
    end
  in
  let snap = Option.get !snap in
  let final_non_finite = non_finite_paths f in
  let failed = total_resets f + final_non_finite in
  let attempted = f.updates in
  let peak_rss_mb = Measure.peak_rss_mb () in
  (* Determinism check: a serial fleet of the same seed must reach the
     pooled fleet's fingerprint at the checkpoint. *)
  let replay = create cfg ~seed ~domains:1 in
  for _ = 1 to cfg.checkpoint do
    ignore (epoch speed (Spans.create ()) cfg replay : epoch)
  done;
  let replay_ok = String.equal (Fleet.Scheduler.fingerprint replay.sched) snap.fingerprint in
  if not replay_ok then
    Printf.eprintf "%s: pooled fingerprint at epoch %d differs from the serial replay\n" cfg.name
      cfg.checkpoint;
  let scores_ok = snap.agreement >= min_agreement && snap.recall >= min_recall in
  if not scores_ok then
    Printf.eprintf "%s: checkpoint agreement %.4f / recall %.4f below the floors %.2f / %.2f\n"
      cfg.name snap.agreement snap.recall min_agreement min_recall;
  if snap.non_finite + final_non_finite > 0 then
    Printf.eprintf "%s: %d paths with a non-finite verdict statistic\n" cfg.name
      (snap.non_finite + final_non_finite);
  let epoch_times = List.map rescaled plain and mean_epoch_s = mean_rescaled plain in
  let gate_count f = Option.fold ~none:0 ~some:f snap.gate in
  let checkpoint_obs = cfg.checkpoint * cfg.paths * cfg.epoch_len in
  Printf.printf
    "%s: checkpoint epoch %d: agreement %.4f, dominant recall %.4f, fingerprint %s (serial replay %s)\n"
    cfg.name cfg.checkpoint snap.agreement snap.recall snap.fingerprint
    (if replay_ok then "matches" else "DIFFERS");
  {
    Measure.correct = replay_ok && scores_ok && snap.non_finite = 0 && final_non_finite = 0;
    attempted;
    failed;
    end_to_end =
      [
        ("setup_s", setup_s);
        ("identify_pass_s", mean_epoch_s);
        ("ingest_obs_per_s", float_of_int (cfg.paths * cfg.epoch_len) /. mean_epoch_s);
        ("epoch_p50_s", Measure.quantile epoch_times 0.5);
        ("epoch_p90_s", Measure.quantile epoch_times 0.9);
        ("verdict_agreement", snap.agreement);
        ("dominant_recall", snap.recall);
        ("peak_rss_mb", peak_rss_mb);
      ];
    per_layer =
      [
        ("fail_ratio", Measure.ratio (snap.resets + snap.non_finite) (snap.updates - updates_at_warmup));
        ("scheduler.paths_updated", float_of_int (snap.updates - updates_at_warmup));
        ("path_state.resets", float_of_int snap.resets);
        ( "sketch.only_obs_ratio",
          Measure.ratio (gate_count (fun g -> g.Fleet.Scheduler.sketch_only_observations)) checkpoint_obs );
        ("sketch.promoted", float_of_int (gate_count (fun g -> g.Fleet.Scheduler.promoted)));
        ("sketch.promotions", float_of_int (gate_count (fun g -> g.Fleet.Scheduler.promotions)));
        ("sketch.demotions", float_of_int (gate_count (fun g -> g.Fleet.Scheduler.demotions)));
      ]
      @ layer;
    env =
      [
        ("domains", string_of_int cfg.domains);
        ("paths", string_of_int cfg.paths);
        ("congested_fraction", Printf.sprintf "%g" cfg.congested_fraction);
        ("gated", string_of_bool cfg.gated);
        ("epoch_observations", string_of_int cfg.epoch_len);
        ("lambda", Printf.sprintf "%g" cfg.lambda);
        ("setup_repeats", string_of_int setups);
        ("warmup_epochs", string_of_int cfg.warmup);
        ("checkpoint_epoch", string_of_int cfg.checkpoint);
        ("steady_epochs", string_of_int (List.length plain));
        ("traced_epochs", string_of_int (List.length traced));
        ("quantile_samples", string_of_int (List.length epoch_times));
        ("host_reference_s", Measure.json_float Host_speed.reference_s);
        ("host_probe_median_s", Measure.json_float (Measure.median (List.map (fun e -> e.probe_s) plain)));
        ("raw_epoch_p50_s", Measure.json_float (Measure.quantile (List.map epoch_s plain) 0.5));
      ];
  }
