(* Fleet benchmark: streaming monitoring throughput and the two
   contracts behind it — pooled epoch determinism (serial tick must be
   bit-identical to the pooled tick, transitions included) and the
   incremental-vs-refit speedup (one online-EM iteration per epoch
   instead of a full history refit); emitted as BENCH_fleet.json, or
   BENCH_fleet.smoke.json with --smoke.

   Schema is documented in DESIGN.md ("BENCH_fleet.json").  The bench
   aborts (exit 1) if any pooled run diverges from the serial one, or
   if the incremental path fails its speedup floor (>= 1x in smoke,
   >= 5x in the full run). *)

let time_of f =
  let t0 = Obs.Span.now_ns () in
  let r = f () in
  (r, float_of_int (Obs.Span.now_ns () - t0) *. 1e-9)

let conclusion_tag = function
  | None -> "u"
  | Some Dcl.Identify.Strongly_dominant -> "s"
  | Some Dcl.Identify.Weakly_dominant -> "w"
  | Some Dcl.Identify.No_dominant -> "n"

(* One complete fleet run: seeded source, seeded scheduler, [epochs]
   ticks.  The transition log captures the full operator-visible event
   stream; determinism means fingerprint AND log match across domain
   counts. *)
let run_fleet ?gate ~domains ~paths ~epochs ~epoch_len ~seed () =
  let log = Buffer.create 256 in
  let rng = Stats.Rng.create seed in
  let src = Fleet.Source.synthetic ~rng ~paths () in
  let config = Fleet.Path_state.config ~scheme:(Fleet.Source.scheme src) () in
  let on_transition (tr : Fleet.Scheduler.transition) =
    Printf.bprintf log "%d:%d:%s>%s;" tr.Fleet.Scheduler.epoch
      tr.Fleet.Scheduler.path
      (conclusion_tag tr.Fleet.Scheduler.was)
      (conclusion_tag tr.Fleet.Scheduler.now)
  in
  let sched =
    Fleet.Scheduler.create ~domains ~on_transition ?gate ~rng ~paths config
  in
  for _ = 1 to epochs do
    for p = 0 to paths - 1 do
      Fleet.Scheduler.push sched ~path:p
        (Fleet.Source.pull src ~path:p ~len:epoch_len)
    done;
    ignore (Fleet.Scheduler.tick sched : int)
  done;
  (Fleet.Scheduler.fingerprint sched, Buffer.contents log)

let run_determinism ~smoke buf =
  let paths = if smoke then 64 else 256 in
  let epochs = if smoke then 4 else 8 in
  let epoch_len = 32 and seed = 0xF1EE7 in
  let domain_counts = if smoke then [ 2; 4 ] else [ 2; 4; 8 ] in
  let fp_serial, log_serial =
    run_fleet ~domains:1 ~paths ~epochs ~epoch_len ~seed ()
  in
  let identical =
    List.for_all
      (fun d ->
        let fp, log = run_fleet ~domains:d ~paths ~epochs ~epoch_len ~seed () in
        if fp <> fp_serial || log <> log_serial then begin
          Printf.eprintf
            "FATAL: pooled fleet (%d domains) diverges from serial \
             (fingerprint %s vs %s, logs %s)\n"
            d fp fp_serial
            (if log = log_serial then "identical" else "differ");
          false
        end
        else true)
      domain_counts
  in
  if not identical then exit 1;
  Printf.bprintf buf
    "  \"determinism\": {\"paths\": %d, \"epochs\": %d, \"epoch_len\": %d,\n\
    \    \"domain_counts\": [%s], \"serial_fingerprint\": \"%s\",\n\
    \    \"transitions_logged\": %d, \"serial_identical_to_pool\": true},\n"
    paths epochs epoch_len
    (String.concat ", " (List.map string_of_int domain_counts))
    fp_serial
    (List.length (String.split_on_char ';' log_serial) - 1);
  Printf.eprintf "bench_fleet: determinism ok (%d paths, domains %s)\n%!" paths
    (String.concat "/" (List.map string_of_int domain_counts))

(* Incremental-vs-refit: the same pre-generated observation stream fed
   once through the streaming scheduler (one online-EM iteration per
   epoch) and once through the classical alternative — re-fit the MMHD
   from scratch on the full history every epoch.  The refit arm skips
   re-testing entirely, which only flatters it. *)
let run_speedup ~smoke buf =
  let paths = if smoke then 12 else 48 in
  let epochs = if smoke then 5 else 10 in
  let epoch_len = 32 in
  let n = 2 and m = 5 in
  let max_iter = if smoke then 10 else 25 in
  let rng = Stats.Rng.create 0xBA7C4 in
  let src = Fleet.Source.synthetic ~m ~rng ~paths () in
  let batches = Array.make_matrix paths epochs [||] in
  for p = 0 to paths - 1 do
    for e = 0 to epochs - 1 do
      batches.(p).(e) <- Fleet.Source.pull src ~path:p ~len:epoch_len
    done
  done;
  let config = Fleet.Path_state.config ~n ~scheme:(Fleet.Source.scheme src) () in
  let sched =
    Fleet.Scheduler.create ~domains:1 ~rng:(Stats.Rng.create 42) ~paths config
  in
  let (), incremental_s =
    time_of (fun () ->
        for e = 0 to epochs - 1 do
          for p = 0 to paths - 1 do
            Fleet.Scheduler.push sched ~path:p batches.(p).(e)
          done;
          ignore (Fleet.Scheduler.tick sched : int)
        done)
  in
  let histories = Array.make paths [||] in
  let refit_rng = Stats.Rng.create 42 in
  let (), refit_s =
    time_of (fun () ->
        for e = 0 to epochs - 1 do
          for p = 0 to paths - 1 do
            histories.(p) <- Array.append histories.(p) batches.(p).(e);
            if Array.exists (fun o -> o <> m) histories.(p) then begin
              let t0 = Mmhd.init_informed refit_rng ~n ~m histories.(p) in
              ignore (Mmhd.fit_from ~eps:1e-3 ~max_iter t0 histories.(p))
            end
          done
        done)
  in
  let speedup = refit_s /. incremental_s in
  let floor = if smoke then 1. else 5. in
  Printf.bprintf buf
    "  \"incremental_vs_refit\": {\"paths\": %d, \"epochs\": %d, \"epoch_len\": %d,\n\
    \    \"refit_max_iter\": %d, \"incremental_seconds\": %.6f,\n\
    \    \"refit_seconds\": %.6f, \"speedup\": %.2f},\n"
    paths epochs epoch_len max_iter incremental_s refit_s speedup;
  Printf.eprintf "bench_fleet: incremental %.2fx vs per-epoch refit\n%!" speedup;
  if speedup < floor then begin
    Printf.eprintf
      "FATAL: incremental speedup %.2fx below the %.0fx floor\n" speedup floor;
    exit 1
  end

(* Minimal RFC 8259 well-formedness checker: enough to prove the trace
   exporter emits parseable JSON without a json-library dependency. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let fail = ref false in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let adv () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c = if peek () = c then adv () else fail := true in
  let hex c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while (not !fin) && not !fail do
      if !pos >= n then fail := true
      else
        match s.[!pos] with
        | '"' ->
            adv ();
            fin := true
        | '\\' -> (
            adv ();
            match peek () with
            | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> adv ()
            | 'u' ->
                adv ();
                for _ = 1 to 4 do
                  if !pos < n && hex s.[!pos] then adv () else fail := true
                done
            | _ -> fail := true)
        | c when Char.code c < 0x20 -> fail := true
        | _ -> adv ()
    done
  in
  let number () =
    if peek () = '-' then adv ();
    let digits () =
      if not (peek () >= '0' && peek () <= '9') then fail := true;
      while peek () >= '0' && peek () <= '9' do
        adv ()
      done
    in
    digits ();
    if peek () = '.' then begin
      adv ();
      digits ()
    end;
    match peek () with
    | 'e' | 'E' ->
        adv ();
        (match peek () with '+' | '-' -> adv () | _ -> ());
        digits ()
    | _ -> ()
  in
  let literal lit =
    let ln = String.length lit in
    if !pos + ln <= n && String.sub s !pos ln = lit then pos := !pos + ln
    else fail := true
  in
  let rec value d =
    if d > 64 || !fail then fail := true
    else begin
      skip_ws ();
      match peek () with
      | '{' ->
          adv ();
          skip_ws ();
          if peek () = '}' then adv ()
          else begin
            let cont = ref true in
            while !cont && not !fail do
              skip_ws ();
              string_lit ();
              skip_ws ();
              expect ':';
              value (d + 1);
              skip_ws ();
              match peek () with
              | ',' -> adv ()
              | '}' ->
                  adv ();
                  cont := false
              | _ -> fail := true
            done
          end
      | '[' ->
          adv ();
          skip_ws ();
          if peek () = ']' then adv ()
          else begin
            let cont = ref true in
            while !cont && not !fail do
              value (d + 1);
              skip_ws ();
              match peek () with
              | ',' -> adv ()
              | ']' ->
                  adv ();
                  cont := false
              | _ -> fail := true
            done
          end
      | '"' -> string_lit ()
      | 't' -> literal "true"
      | 'f' -> literal "false"
      | 'n' -> literal "null"
      | _ -> number ()
    end
  in
  value 0;
  skip_ws ();
  (not !fail) && !pos = n

(* Flight-recorder leg: the same seeded gated fleet run with tracing
   off and on must be bit-identical (fingerprint and transition log —
   the recorder only ever reads the clock), and the Chrome export must
   be well-formed JSON with at least one event from every instrumented
   seam.  256 paths with the low-threshold gate keeps >64 paths
   promoted, so the pooled tick genuinely fans out (pool chunk size is
   64) and pool.* spans come from real workers. *)
let run_trace ~smoke buf =
  let paths = 256 and epochs = 3 and epoch_len = 32 and seed = 0xF1EE7 in
  let gate () = Sketch.Gate.config ~loss_threshold:0.08 ~promote_after:1 () in
  let arm () =
    run_fleet ~gate:(gate ()) ~domains:2 ~paths ~epochs ~epoch_len ~seed ()
  in
  Obs.Trace.set_enabled false;
  let fp_off, log_off = arm () in
  Obs.Trace.set_capacity 16384;
  Obs.Trace.set_enabled true;
  let fp_on, log_on = arm () in
  Obs.Trace.set_enabled false;
  if fp_on <> fp_off || log_on <> log_off then begin
    Printf.eprintf
      "FATAL: fleet run with tracing enabled diverges from tracing disabled \
       (fingerprint %s vs %s, logs %s)\n"
      fp_on fp_off
      (if log_on = log_off then "identical" else "differ");
    exit 1
  end;
  let evs = Obs.Trace.events () in
  let seam_count prefix =
    let lp = String.length prefix in
    List.length
      (List.filter
         (fun (e : Obs.Trace.event) ->
           String.length e.Obs.Trace.ev_name >= lp
           && String.sub e.Obs.Trace.ev_name 0 lp = prefix)
         evs)
  in
  let em = seam_count "em." and pool = seam_count "pool." in
  let epoch = seam_count "fleet.epoch" and gate_ev = seam_count "gate." in
  List.iter
    (fun (name, c) ->
      if c = 0 then begin
        Printf.eprintf "FATAL: no %s trace events recorded\n" name;
        exit 1
      end)
    [ ("em.*", em); ("pool.*", pool); ("fleet.epoch", epoch); ("gate.*", gate_ev) ];
  let chrome = Obs.Trace.chrome_json () in
  if not (json_valid chrome) then begin
    Printf.eprintf "FATAL: Chrome trace export is not well-formed JSON\n";
    exit 1
  end;
  let path = if smoke then "TRACE_fleet.smoke.json" else "TRACE_fleet.json" in
  let oc = open_out path in
  output_string oc chrome;
  close_out oc;
  Printf.bprintf buf
    "  \"trace\": {\"paths\": %d, \"epochs\": %d, \"domains\": 2,\n\
    \    \"events_emitted\": %d, \"events_retained\": %d,\n\
    \    \"em_events\": %d, \"pool_events\": %d, \"epoch_events\": %d,\n\
    \    \"gate_events\": %d, \"chrome_export_valid_json\": true,\n\
    \    \"fingerprint_identical_to_untraced\": true},\n"
    paths epochs (Obs.Trace.emitted ()) (Obs.Trace.stored ()) em pool epoch
    gate_ev;
  Printf.eprintf
    "bench_fleet: trace leg ok (%d events; em/pool/epoch/gate covered; \
     fingerprint identical; wrote %s)\n%!"
    (Obs.Trace.emitted ()) path

(* Sketch-gated vs ungated triage on a mixed, mostly-quiet fleet (one
   congested template in ten): the same pre-generated observation
   stream through both arms.  Asserts the two contracts behind the
   gate — tick throughput at least 10x the ungated fleet's, and
   dominant-path recall within one path-conclusion of the ungated
   arm's — plus gated pooled-vs-serial determinism.  Push time (which
   for the gated arm includes all sketch work) is reported as the
   end-to-end ratio but not asserted: the tick is where the EM cost
   the gate exists to avoid lives. *)
let run_gated ~smoke buf =
  let paths = if smoke then 2000 else 4000 in
  let epochs = 6 in
  let epoch_len = 24 in
  let templates = 10 and congested_fraction = 0.1 in
  let seed = 13 in
  let rng = Stats.Rng.create seed in
  let src =
    Fleet.Source.synthetic ~templates ~congested_fraction ~rng ~paths ()
  in
  let batches = Array.make_matrix paths epochs [||] in
  for p = 0 to paths - 1 do
    for e = 0 to epochs - 1 do
      batches.(p).(e) <- Fleet.Source.pull src ~path:p ~len:epoch_len
    done
  done;
  let config = Fleet.Path_state.config ~scheme:(Fleet.Source.scheme src) () in
  (* Both arms consume the identical pre-generated stream with
     identically seeded schedulers; batches are never mutated, so
     sharing them is safe. *)
  let arm_once gate =
    let sched =
      Fleet.Scheduler.create ~domains:1 ?gate ~rng:(Stats.Rng.create 42) ~paths
        config
    in
    let push_total = ref 0. and tick_total = ref 0. in
    for e = 0 to epochs - 1 do
      let (), push_s =
        time_of (fun () ->
            for p = 0 to paths - 1 do
              Fleet.Scheduler.push sched ~path:p batches.(p).(e)
            done)
      in
      let _, tick_s = time_of (fun () -> Fleet.Scheduler.tick sched) in
      push_total := !push_total +. push_s;
      tick_total := !tick_total +. tick_s
    done;
    let dominant = ref 0 and recalled = ref 0 in
    for p = 0 to paths - 1 do
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
    (sched, !push_total, !tick_total, !recalled, !dominant)
  in
  (* Seeded schedulers over a fixed stream make every repetition
     bit-identical in results, so only the clock varies: take the
     fastest of a few repetitions per arm, which strips scheduler
     jitter and frequency-scaling transients out of a measurement
     whose smoke-sized gated arm totals only a few milliseconds. *)
  let reps = if smoke then 3 else 2 in
  let arm gate =
    let once gate =
      (* A clean heap before each repetition keeps major-GC slices
         from the other arm (or a previous repetition) out of this
         one's timed window. *)
      Gc.full_major ();
      arm_once gate
    in
    let best = ref (once gate) in
    for _ = 2 to reps do
      let (_, _, tick, _, _) as run = once gate in
      let _, _, best_tick, _, _ = !best in
      if tick < best_tick then best := run
    done;
    !best
  in
  let _, push_u, tick_u, recall_u, dominant = arm None in
  let gated_sched, push_g, tick_g, recall_g, _ =
    arm (Some (Sketch.Gate.config ()))
  in
  let tick_ratio = tick_u /. tick_g in
  let e2e_ratio = (push_u +. tick_u) /. (push_g +. tick_g) in
  let gs = Option.get (Fleet.Scheduler.gate_stats gated_sched) in
  (* The asserted throughput figure is the EM-work ratio: observations
     the ungated arm feeds through the tick's EM sweeps over those the
     gated arm does.  It is bitwise-deterministic (seeded source,
     seeded schedulers), so the floor cannot flake on a loaded CI
     runner; the wall-clock tick ratio tracks it (gated EM updates
     are, if anything, cheaper per observation) but totals only a few
     milliseconds at smoke size, so it gets a loose sanity floor
     instead of the 10x assertion. *)
  let total_obs = paths * epochs * epoch_len in
  let work_ratio =
    float total_obs
    /. float (total_obs - gs.Fleet.Scheduler.sketch_only_observations)
  in
  (* Gated determinism: the sketch front end runs at push time on the
     driver, so the pooled gated tick must stay bit-identical to the
     serial one (fingerprints include the gate and estimator state). *)
  let det_paths = if smoke then 64 else 256 in
  let det_epochs = if smoke then 4 else 8 in
  let domain_counts = if smoke then [ 2; 4 ] else [ 2; 4; 8 ] in
  let gate () = Sketch.Gate.config ~loss_threshold:0.08 ~promote_after:1 () in
  let fp_serial, log_serial =
    run_fleet ~gate:(gate ()) ~domains:1 ~paths:det_paths ~epochs:det_epochs
      ~epoch_len:32 ~seed:0xF1EE7 ()
  in
  let det_ok =
    List.for_all
      (fun d ->
        let fp, log =
          run_fleet ~gate:(gate ()) ~domains:d ~paths:det_paths
            ~epochs:det_epochs ~epoch_len:32 ~seed:0xF1EE7 ()
        in
        if fp <> fp_serial || log <> log_serial then begin
          Printf.eprintf
            "FATAL: gated pooled fleet (%d domains) diverges from serial \
             (fingerprint %s vs %s, logs %s)\n"
            d fp fp_serial
            (if log = log_serial then "identical" else "differ");
          false
        end
        else true)
      domain_counts
  in
  Printf.bprintf buf
    "  \"gated\": {\"paths\": %d, \"epochs\": %d, \"epoch_len\": %d,\n\
    \    \"templates\": %d, \"congested_fraction\": %.2f,\n\
    \    \"em_work_ratio\": %.2f,\n\
    \    \"ungated_tick_seconds\": %.6f, \"gated_tick_seconds\": %.6f,\n\
    \    \"tick_throughput_ratio\": %.2f, \"end_to_end_ratio\": %.2f,\n\
    \    \"ungated_recall\": \"%d/%d\", \"gated_recall\": \"%d/%d\",\n\
    \    \"promoted\": %d, \"promotions\": %d, \"demotions\": %d,\n\
    \    \"sketch_only_observations\": %d,\n\
    \    \"gated_serial_fingerprint\": \"%s\",\n\
    \    \"gated_serial_identical_to_pool\": %b},\n"
    paths epochs epoch_len templates congested_fraction work_ratio tick_u
    tick_g tick_ratio e2e_ratio recall_u dominant recall_g dominant
    gs.Fleet.Scheduler.promoted gs.Fleet.Scheduler.promotions
    gs.Fleet.Scheduler.demotions gs.Fleet.Scheduler.sketch_only_observations
    fp_serial det_ok;
  Printf.eprintf
    "bench_fleet: gated EM work %.2fx ungated (wall tick %.2fx, end-to-end \
     %.2fx), recall %d/%d gated vs %d/%d ungated, %d/%d paths promoted\n\
     %!"
    work_ratio tick_ratio e2e_ratio recall_g dominant recall_u dominant
    gs.Fleet.Scheduler.promoted paths;
  if not det_ok then exit 1;
  if work_ratio < 10. then begin
    Printf.eprintf
      "FATAL: gated EM-work ratio %.2fx below the 10x floor\n" work_ratio;
    exit 1
  end;
  if tick_ratio < 7. then begin
    Printf.eprintf
      "FATAL: gated wall-clock tick ratio %.2fx below the 7x sanity floor\n"
      tick_ratio;
    exit 1
  end;
  if abs (recall_u - recall_g) > 1 then begin
    Printf.eprintf
      "FATAL: gated recall %d/%d differs from ungated %d/%d by more than one \
       path\n"
      recall_g dominant recall_u dominant;
    exit 1
  end

let () =
  let smoke = ref false and gated_only = ref false in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--smoke" -> smoke := true
        | "--gated" -> gated_only := true
        | _ ->
            Printf.eprintf
              "bench_fleet: unknown argument %S\n\
               usage: bench_fleet [--smoke] [--gated]\n"
              arg;
            exit 2)
    Sys.argv;
  let smoke = !smoke and gated_only = !gated_only in
  (* Force real pool workers even on small CI machines, so the pooled
     determinism runs genuinely interleave. *)
  Stats.Pool.set_capacity (max 8 (Stats.Pool.size ()));
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\n  \"bench\": \"fleet\",\n  \"profile\": %S,\n  \"cores\": %d,\n"
    Build_profile.name (Stats.Pool.size ());
  if not gated_only then begin
    run_determinism ~smoke buf;
    run_speedup ~smoke buf;
    run_trace ~smoke buf
  end;
  (* The gated triage section runs in the dedicated --gated smoke and
     in the full (non-smoke) bench; the pre-existing --smoke alias
     stays as cheap as it was. *)
  if gated_only || not smoke then run_gated ~smoke buf;
  Printf.bprintf buf
    "  \"note\": \"determinism re-runs the same seeded fleet serially and on \
     2/4/8 pool domains and requires bitwise-equal model fingerprints and \
     transition logs. incremental_vs_refit feeds one pre-generated stream \
     through the streaming scheduler (one online-EM iteration per epoch, \
     re-tests included) and through per-epoch full-history refits \
     (informed init, eps 1e-3, re-tests excluded); the speedup floor is 1x \
     in smoke and 5x in the full run, and grows with history length since \
     refit cost is O(history) per epoch. trace reruns a seeded gated fleet with the Obs.Trace flight \
     recorder off and on, requires bit-identical fingerprints and \
     transition logs, and validates the Chrome export (written to \
     TRACE_fleet[.smoke].json) as well-formed JSON with at least one event \
     per instrumented seam (em/pool/epoch/gate). gated feeds one \
     pre-generated mixed stream (one congested \
     template in ten) through an ungated and a sketch-gated arm and \
     requires em_work_ratio (observations swept by the ungated tick's EM \
     over the gated tick's, bitwise-deterministic) >= 10x, dominant-path \
     recall within one conclusion of ungated, and gated pooled ticks \
     bit-identical to serial; tick_throughput_ratio is the wall-clock \
     counterpart (>= 7x sanity floor, a few ms at smoke size so it is not \
     held to the 10x figure) and end_to_end_ratio includes push-side \
     sketch work and is reported unasserted; timed arms take the fastest \
     of a few repetitions after Gc.full_major.\"\n}\n";
  let path =
    match (gated_only, smoke) with
    | true, true -> "BENCH_fleet.gated.smoke.json"
    | true, false -> "BENCH_fleet.gated.json"
    | false, true -> "BENCH_fleet.smoke.json"
    | false, false -> "BENCH_fleet.json"
  in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_string (Buffer.contents buf);
  Printf.eprintf "bench_fleet: wrote %s\n%!" path
