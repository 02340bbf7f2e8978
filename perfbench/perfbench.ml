(* Benchmark program for BENCHMARK.json:

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   runs one workload and prints, as the last line of standard output, a
   JSON object with [correct], [attempted], [failed] and [metrics]: the
   end-to-end metrics with [--trace 0], the per-layer metrics with
   [--trace 1].  The line before it records the environment.  Exits 1
   when an output check fails. *)

(* Metric catalogues, in BENCHMARK.json order, with their units.  A
   workload reports every end-to-end metric; per-layer metrics a
   workload's layers never reach are reported as 0. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("identify_pass_s", "s");
    ("ingest_obs_per_s", "obs/s");
    ("epoch_p50_s", "s");
    ("epoch_p90_s", "s");
    ("verdict_agreement", "ratio");
    ("dominant_recall", "ratio");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("dcl.fit_vqd_s", "s");
    ("dcl.conclude_s", "s");
    ("dcl.stage.discretize_s", "s");
    ("dcl.stage.fit_s", "s");
    ("dcl.stage.vqd_s", "s");
    ("dcl.stage.tests_s", "s");
    ("dcl.stage.bound_s", "s");
    ("em.iterations", "count");
    ("em.ns_per_obs_iter", "ns");
    ("em.skipped_restarts", "count");
    ("em.append_s", "s");
    ("scenarios.run_s", "s");
    ("netsim.events_per_s", "1/s");
    ("clocksync.repair_s", "s");
    ("scheduler.tick_s", "s");
    ("scheduler.push_s", "s");
    ("scheduler.paths_updated", "count");
    ("scheduler.ns_per_path_update", "ns");
    ("scheduler.push_ns_per_obs", "ns");
    ("gc.minor_words_per_obs", "words");
    ("gc.major_collections", "count");
    ("pool.queue_wait_s", "s");
    ("pool.busy_s", "s");
    ("pool.utilization", "ratio");
    ("sketch.only_obs_ratio", "ratio");
    ("sketch.promoted", "count");
    ("sketch.promotions", "count");
    ("sketch.demotions", "count");
    ("path_state.resets", "count");
    ("source.pull_s", "s");
    ("trace.overhead_ratio", "ratio");
    ("fail_ratio", "ratio");
  ]

let workloads =
  [
    ("identify-paper", Identify_paper.run);
    ("fleet-dense", Fleet_bench.run Fleet_bench.dense);
    ("fleet-sparse", Fleet_bench.run Fleet_bench.sparse);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload identify-paper|fleet-dense|fleet-sparse --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key -> parse ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key conv = match Option.bind (List.assoc_opt key opts) conv with Some v -> v | None -> usage () in
  let workload = get "--workload" Option.some in
  let seed = get "--seed" int_of_string_opt in
  let seconds = get "--seconds" float_of_string_opt in
  let trace = get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) in
  let run = match List.assoc_opt workload workloads with Some r -> r | None -> usage () in
  let o = run ~seed ~seconds ~trace in
  let catalogue, values = if trace then (per_layer, o.Measure.per_layer) else (end_to_end, o.Measure.end_to_end) in
  let metrics =
    List.map
      (fun (name, unit_) ->
        let value =
          match List.assoc_opt name values with
          | Some v -> v
          | None when trace -> 0.
          | None -> failwith ("perfbench: workload did not report " ^ name)
        in
        (name, value, unit_))
      catalogue
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then prerr_endline "perfbench: a metric is not a finite number";
  let correct = o.Measure.correct && finite in
  let env =
    [
      ("workload", Measure.json_string workload);
      ("seed", string_of_int seed);
      ("run_seconds", Measure.json_float seconds);
      ("trace", string_of_bool trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Measure.json_string Sys.ocaml_version);
    ]
    @ o.Measure.env
  in
  print_endline ("env: " ^ Measure.json_object env);
  print_endline
    (Measure.json_object
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int o.Measure.attempted);
         ("failed", string_of_int o.Measure.failed);
         ( "metrics",
           Measure.json_object
             (List.map
                (fun (name, value, unit_) ->
                  ( name,
                    Measure.json_object
                      [ ("value", Measure.json_float value); ("unit", Measure.json_string unit_) ] ))
                metrics) );
       ]);
  exit (if correct then 0 else 1)
