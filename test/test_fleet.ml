(* Tests for the fleet layer: incremental-EM equivalence with the batch
   sweep, decay semantics, carry factorization, pooled epoch
   determinism, transition emission, and reuse of the per-domain
   workspace across path shapes. *)

(* Oversubscribe the pool so the multi-domain determinism tests spawn
   real workers even on a single-core CI machine. *)
let () = Stats.Pool.set_capacity 8

let check_float = Alcotest.(check (float 1e-12))
let check_same_floats name a b = Alcotest.(check (array (float 0.))) name a b

let mmhd_obs ~seed ~n ~m ~len =
  let rng = Stats.Rng.create seed in
  let truth = Mmhd.init_random rng ~n ~m ~loss_fraction:0.08 in
  let obs, _ = Mmhd.simulate rng truth ~len in
  obs.(0) <- Some 0;
  obs.(1) <- None;
  obs

let informed ~seed ~n ~m obs = Mmhd.init_informed (Stats.Rng.create seed) ~n ~m obs

(* --- incremental EM vs the batch sweep --------------------------------- *)

(* One appended batch at lambda = 1 must reproduce the batch EM step:
   same log-likelihood as the full forward pass, and an M-step equal to
   em_step parameter-for-parameter.  The property quantifies over model
   shape, batch length and seed. *)
let prop_single_append_matches_em_step =
  QCheck.Test.make ~name:"lambda=1 single append = batch em_step" ~count:60
    QCheck.(triple (int_range 1 3) (int_range 2 5) (int_range 30 300))
    (fun (n, m, len) ->
      let obs = mmhd_obs ~seed:(n + (7 * m) + len) ~n ~m ~len in
      let model = informed ~seed:5 ~n ~m obs in
      let ws = Em.workspace () in
      let stats = Em.Incremental.create ~s:(n * m) ~m in
      let ll = Em.Incremental.append ~ws stats model obs in
      let incr_model = Em.Incremental.m_step stats model in
      let batch_model = Em.em_step ~ws ~update_b:false model obs in
      let ll_batch = Em.log_likelihood ~ws model obs in
      let eq = Stats.Float_cmp.approx_eq ~eps:1e-9 in
      let arrays_eq a b =
        Array.length a = Array.length b && Array.for_all2 eq a b
      in
      eq ll ll_batch
      && arrays_eq incr_model.Em.pi batch_model.Em.pi
      && arrays_eq incr_model.Em.a batch_model.Em.a
      && arrays_eq incr_model.Em.c batch_model.Em.c)

let test_single_append_bitwise () =
  (* On one concrete case the equality is exact, not just within
     tolerance: append accumulates the same kernel statistics em_step
     consumes, and m_step mirrors its arithmetic. *)
  let n = 2 and m = 4 in
  let obs = mmhd_obs ~seed:3 ~n ~m ~len:400 in
  let model = informed ~seed:9 ~n ~m obs in
  let ws = Em.workspace () in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  let ll = Em.Incremental.append ~ws stats model obs in
  let incr_model = Em.Incremental.m_step stats model in
  let batch_model = Em.em_step ~ws ~update_b:false model obs in
  check_float "log-likelihood" (Em.log_likelihood ~ws model obs) ll;
  check_same_floats "pi" batch_model.Em.pi incr_model.Em.pi;
  check_same_floats "a" batch_model.Em.a incr_model.Em.a;
  check_same_floats "c" batch_model.Em.c incr_model.Em.c;
  Alcotest.(check (array (float 0.)))
    "b is shared, not copied" model.Em.b incr_model.Em.b

let test_append_weight_and_counts () =
  let n = 2 and m = 3 in
  let obs = mmhd_obs ~seed:21 ~n ~m ~len:120 in
  let model = informed ~seed:2 ~n ~m obs in
  let ws = Em.workspace () in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  ignore (Em.Incremental.append ~ws stats model obs : float);
  check_float "weight = batch length" 120. (Em.Incremental.weight stats);
  Alcotest.(check int) "one batch" 1 (Em.Incremental.batches stats);
  (* Posterior observation + loss mass accounts for every probe: each
     time step contributes one unit of posterior mass. *)
  let total =
    Array.fold_left ( +. ) 0. (Em.Incremental.count_obs stats)
    +. Array.fold_left ( +. ) 0. (Em.Incremental.count_loss stats)
  in
  Alcotest.(check (float 1e-6)) "posterior mass = T" 120. total

(* A batch with a symbol outside [0, m) is refused before any
   statistic moves, like the other append errors. *)
let test_append_rejects_bad_symbol () =
  let n = 2 and m = 3 in
  let obs = mmhd_obs ~seed:21 ~n ~m ~len:120 in
  let model = informed ~seed:2 ~n ~m obs in
  let ws = Em.workspace () in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  ignore (Em.Incremental.append ~ws stats model obs : float);
  let snapshot () =
    ( [
        Em.Incremental.xi stats;
        Em.Incremental.gamma_sum stats;
        Em.Incremental.count_obs stats;
        Em.Incremental.count_loss stats;
        Em.Incremental.filtered_end stats;
        [| Em.Incremental.weight stats; Em.Incremental.log_likelihood stats |];
      ],
      Em.Incremental.batches stats )
  in
  let before = snapshot () in
  Alcotest.check_raises "symbol m"
    (Invalid_argument "Em: symbol 3 at time 2 is outside [0, 3)") (fun () ->
      ignore (Em.Incremental.append ~ws stats model [| Some 0; None; Some 3 |] : float));
  Alcotest.(check bool) "statistics untouched" true (before = snapshot ())

(* --- decay ------------------------------------------------------------- *)

let test_decay_scales_everything () =
  let n = 2 and m = 3 in
  let obs = mmhd_obs ~seed:31 ~n ~m ~len:150 in
  let model = informed ~seed:4 ~n ~m obs in
  let ws = Em.workspace () in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  ignore (Em.Incremental.append ~ws stats model obs : float);
  let xi0 = Em.Incremental.xi stats in
  let w0 = Em.Incremental.weight stats in
  Em.Incremental.decay stats ~lambda:0.5 ;
  check_float "weight halves" (w0 /. 2.) (Em.Incremental.weight stats);
  Array.iteri
    (fun i x -> check_float (Printf.sprintf "xi.(%d) halves" i) (xi0.(i) /. 2.) x)
    (Em.Incremental.xi stats)

let test_decay_identity_at_one () =
  let n = 1 and m = 3 in
  let obs = mmhd_obs ~seed:41 ~n ~m ~len:90 in
  let model = informed ~seed:6 ~n ~m obs in
  let ws = Em.workspace () in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  ignore (Em.Incremental.append ~ws stats model obs : float);
  let xi0 = Em.Incremental.xi stats in
  let co0 = Em.Incremental.count_obs stats in
  Em.Incremental.decay stats ~lambda:1.;
  check_same_floats "xi unchanged bitwise" xi0 (Em.Incremental.xi stats);
  check_same_floats "count_obs unchanged bitwise" co0 (Em.Incremental.count_obs stats)

let test_decay_validation () =
  let stats = Em.Incremental.create ~s:4 ~m:2 in
  Alcotest.check_raises "lambda > 1"
    (Invalid_argument "Em.Incremental.decay: lambda must be in [0, 1]")
    (fun () -> Em.Incremental.decay stats ~lambda:1.5);
  Alcotest.check_raises "lambda nan"
    (Invalid_argument "Em.Incremental.decay: lambda must be in [0, 1]")
    (fun () -> Em.Incremental.decay stats ~lambda:Float.nan)

(* --- carry: the forward likelihood factorizes across batches ----------- *)

let test_carry_loglik_additivity () =
  let n = 2 and m = 4 in
  let obs = mmhd_obs ~seed:51 ~n ~m ~len:300 in
  let model = informed ~seed:8 ~n ~m obs in
  let ws = Em.workspace () in
  let ll_full = Em.log_likelihood ~ws model obs in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  let ll1 =
    Em.Incremental.append ~ws stats model (Array.sub obs 0 150)
  in
  let ll2 =
    Em.Incremental.append ~ws stats model (Array.sub obs 150 150)
  in
  (* Propagating the filtered end distribution one transition step into
     the next batch's starting distribution makes the product of batch
     likelihoods the full-sequence likelihood, up to summation order. *)
  Alcotest.(check (float 1e-8)) "sum of batch logLs = full logL" ll_full (ll1 +. ll2)

let test_carry_off_is_independent () =
  let n = 2 and m = 4 in
  let obs = mmhd_obs ~seed:61 ~n ~m ~len:200 in
  let model = informed ~seed:8 ~n ~m obs in
  let ws = Em.workspace () in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  ignore (Em.Incremental.append ~ws stats model (Array.sub obs 0 100) : float);
  let ll2 = Em.Incremental.append ~ws ~carry:false stats model (Array.sub obs 100 100) in
  let fresh = Em.Incremental.create ~s:(n * m) ~m in
  let ll2' = Em.Incremental.append ~ws fresh model (Array.sub obs 100 100) in
  check_float "carry:false restarts from the model prior" ll2' ll2

let test_reset () =
  let n = 1 and m = 2 in
  let obs = mmhd_obs ~seed:71 ~n ~m ~len:60 in
  let model = informed ~seed:3 ~n ~m obs in
  let ws = Em.workspace () in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  ignore (Em.Incremental.append ~ws stats model obs : float);
  Em.Incremental.reset stats;
  check_float "weight zero" 0. (Em.Incremental.weight stats);
  Alcotest.(check int) "batches zero" 0 (Em.Incremental.batches stats);
  Alcotest.check_raises "m_step on empty stats"
    (Invalid_argument "Em.Incremental.m_step: no appended batch") (fun () ->
      ignore (Em.Incremental.m_step stats model))

(* --- fleet: pooled epoch determinism ----------------------------------- *)

let conclusion_tag = function
  | None -> "u"
  | Some Dcl.Identify.Strongly_dominant -> "s"
  | Some Dcl.Identify.Weakly_dominant -> "w"
  | Some Dcl.Identify.No_dominant -> "n"

let run_fleet ?gate ?(descending = false) ~domains ~paths ~epochs ~epoch_len ~seed
    () =
  let log = Buffer.create 128 in
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
    let batches =
      Array.init paths (fun p -> Fleet.Source.pull src ~path:p ~len:epoch_len)
    in
    for k = 0 to paths - 1 do
      let p = if descending then paths - 1 - k else k in
      Fleet.Scheduler.push sched ~path:p batches.(p)
    done;
    ignore (Fleet.Scheduler.tick sched : int)
  done;
  (sched, Fleet.Scheduler.fingerprint sched, Buffer.contents log)

let test_pool_determinism () =
  let paths = 48 and epochs = 4 and epoch_len = 24 and seed = 1234 in
  let _, fp1, log1 = run_fleet ~domains:1 ~paths ~epochs ~epoch_len ~seed () in
  Alcotest.(check bool) "serial run emits transitions" true (String.length log1 > 0);
  List.iter
    (fun domains ->
      let _, fp, log = run_fleet ~domains ~paths ~epochs ~epoch_len ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "fingerprint at %d domains" domains)
        fp1 fp;
      Alcotest.(check string)
        (Printf.sprintf "transition log at %d domains" domains)
        log1 log)
    [ 2; 4; 8 ]

let test_gated_pool_determinism () =
  (* The gated fingerprint also folds the sketch/gate state, so this
     checks the whole triage front end is driver-side and pure. *)
  let gate () = Sketch.Gate.config ~loss_threshold:0.05 ~promote_after:1 () in
  let paths = 48 and epochs = 4 and epoch_len = 24 and seed = 1234 in
  let sched, fp1, log1 =
    run_fleet ~gate:(gate ()) ~domains:1 ~paths ~epochs ~epoch_len ~seed ()
  in
  Alcotest.(check bool) "gated fleet promotes some paths" true
    (Fleet.Scheduler.promoted_count sched > 0);
  Alcotest.(check bool) "and keeps some quiet" true
    (Fleet.Scheduler.promoted_count sched < paths);
  List.iter
    (fun domains ->
      let _, fp, log =
        run_fleet ~gate:(gate ()) ~domains ~paths ~epochs ~epoch_len ~seed ()
      in
      Alcotest.(check string)
        (Printf.sprintf "gated fingerprint at %d domains" domains)
        fp1 fp;
      Alcotest.(check string)
        (Printf.sprintf "gated transition log at %d domains" domains)
        log1 log)
    [ 2; 4; 8 ]

let test_gated_push_order_irrelevant () =
  (* Every gate signal is per path, so the order in which a driver
     pushes paths within an epoch cannot change any decision. *)
  let run descending =
    run_fleet
      ~gate:(Sketch.Gate.config ~loss_threshold:0.05 ~promote_after:1 ())
      ~descending ~domains:1 ~paths:48 ~epochs:6 ~epoch_len:24 ~seed:1234 ()
  in
  let sched, fp_asc, log_asc = run false in
  let _, fp_desc, log_desc = run true in
  Alcotest.(check bool) "gated fleet promotes some paths" true
    (Fleet.Scheduler.promoted_count sched > 0);
  Alcotest.(check string) "fingerprint" fp_asc fp_desc;
  Alcotest.(check string) "transition log" log_asc log_desc

(* A pushed batch with a symbol outside [0, m) is refused whole, before
   the gate or the pending queue sees any of it, and the next tick runs
   as if it had never been pushed. *)
let test_push_rejects_bad_symbol () =
  let run gate ~with_bad =
    let rng = Stats.Rng.create 5 in
    let src = Fleet.Source.synthetic ~rng ~paths:4 () in
    let scheme = Fleet.Source.scheme src in
    let m = scheme.Dcl.Discretize.m in
    let sched =
      Fleet.Scheduler.create ?gate ~rng ~paths:4 (Fleet.Path_state.config ~scheme ())
    in
    let epoch bad =
      for p = 0 to 3 do
        Fleet.Scheduler.push sched ~path:p (Fleet.Source.pull src ~path:p ~len:32)
      done;
      if bad then begin
        let fp = Fleet.Scheduler.fingerprint sched in
        Alcotest.check_raises "symbol m"
          (Invalid_argument
             (Printf.sprintf "Fleet.Scheduler.push: symbol %d at time 1 is outside [0, %d)"
                m m))
          (fun () -> Fleet.Scheduler.push sched ~path:2 [| Some 0; Some m; Some 9 |]);
        Alcotest.check_raises "symbol -1"
          (Invalid_argument
             (Printf.sprintf "Fleet.Scheduler.push: symbol -1 at time 2 is outside [0, %d)" m))
          (fun () -> Fleet.Scheduler.push sched ~path:1 [| None; Some 0; Some (-1) |]);
        Alcotest.(check string) "fingerprint unchanged" fp (Fleet.Scheduler.fingerprint sched)
      end;
      ignore (Fleet.Scheduler.tick sched : int)
    in
    epoch false;
    epoch with_bad;
    epoch false;
    Fleet.Scheduler.fingerprint sched
  in
  List.iter
    (fun gate ->
      Alcotest.(check string) "as if never pushed" (run gate ~with_bad:false)
        (run gate ~with_bad:true))
    [ None; Some (Sketch.Gate.config ~loss_threshold:0.05 ~promote_after:1 ()) ]

let test_fleet_reruns_identically () =
  (* Same seed, same everything: the whole fleet is a pure function of
     its inputs even across separate constructions. *)
  let run () =
    run_fleet ~domains:1 ~paths:16 ~epochs:3 ~epoch_len:32 ~seed:77 ()
  in
  let _, fp1, log1 = run () and _, fp2, log2 = run () in
  Alcotest.(check string) "fingerprint" fp1 fp2;
  Alcotest.(check string) "log" log1 log2

(* --- fleet: transition emission ---------------------------------------- *)

let test_transitions_consistent () =
  let paths = 32 and epochs = 6 in
  let transitions = ref [] in
  let rng = Stats.Rng.create 99 in
  let src = Fleet.Source.synthetic ~rng ~paths () in
  let config = Fleet.Path_state.config ~scheme:(Fleet.Source.scheme src) () in
  let sched =
    Fleet.Scheduler.create
      ~on_transition:(fun tr -> transitions := tr :: !transitions)
      ~rng ~paths config
  in
  for _ = 1 to epochs do
    for p = 0 to paths - 1 do
      Fleet.Scheduler.push sched ~path:p (Fleet.Source.pull src ~path:p ~len:48)
    done;
    ignore (Fleet.Scheduler.tick sched : int)
  done;
  let transitions = List.rev !transitions in
  Alcotest.(check bool) "some transitions" true (transitions <> []);
  (* Each transition is a real change; within an epoch they arrive in
     ascending path order; per path, consecutive transitions chain. *)
  let last_state = Hashtbl.create 16 and last_key = ref (-1, -1) in
  List.iter
    (fun (tr : Fleet.Scheduler.transition) ->
      Alcotest.(check bool) "was <> now" true (tr.was <> tr.now);
      let key = (tr.epoch, tr.path) in
      Alcotest.(check bool) "ascending (epoch, path) order" true (key > !last_key);
      last_key := key;
      let prev =
        Option.value ~default:None (Hashtbl.find_opt last_state tr.path)
      in
      Alcotest.(check bool) "chains from previous state" true (tr.was = prev);
      Hashtbl.replace last_state tr.path tr.now)
    transitions;
  (* Final scheduler state agrees with the last emitted transition. *)
  Hashtbl.iter
    (fun path state ->
      Alcotest.(check string)
        (Printf.sprintf "path %d final state" path)
        (conclusion_tag state)
        (conclusion_tag (Fleet.Scheduler.conclusion sched path)))
    last_state

(* The two-regime path of examples/online_monitor.ml, shortened: link A
   is congested throughout, and at [switch] 20 s-period overflow pulses
   start on link B, so the path stops having a dominant congested link.
   Probes every 20 ms from 20 s to [until]. *)
let two_regime_trace ~seed ~switch ~until =
  let open Netsim in
  let sim = Sim.create ~seed () in
  let net = Net.create sim in
  let node = Net.add_node net in
  let src = node "src" and r1 = node "r1" and r2 = node "r2" and r3 = node "r3" in
  let dst = node "dst" in
  let link a b bandwidth delay capacity =
    ignore (Net.add_duplex net ~a ~b ~bandwidth ~delay ~capacity ())
  in
  link src r1 10e6 0.001 200_000;
  link r1 r2 0.7e6 0.005 25_600;
  link r2 r3 0.2e6 0.005 25_600;
  link r3 dst 10e6 0.001 200_000;
  Net.compute_routes net;
  ignore (Traffic.Workload.ftp_at net ~src:r1 ~dst:r2 ~at:0.1);
  ignore (Traffic.Workload.ftp_at net ~src:r1 ~dst:r2 ~at:0.4);
  Traffic.Udp.start (Traffic.Udp.cbr net ~src:r2 ~dst:r3 ~rate:0.05e6 ~pkt_size:1000);
  let pulses =
    Traffic.Udp.pulse net ~src:r2 ~dst:r3 ~rate:0.8e6 ~pkt_size:1000 ~on_duration:0.55
      ~period:20.
  in
  Sim.at sim switch (fun () -> Traffic.Udp.start pulses);
  let prober = Probe.Prober.create net ~src ~dst ~interval:0.02 () in
  Probe.Prober.start prober ~at:20. ~until;
  Sim.run_until sim (until +. 5.);
  Probe.Prober.trace prober

(* Streaming replaces sliding-window re-identification: a one-path
   replay of the two-regime trace, 500-observation (10 s) epochs at
   lambda 0.9, leaves strongly-dominant as soon as post-switch data
   arrives and settles on no-dominant for good.  Epoch k holds the
   probes sent in [20 + 10k, 30 + 10k) s, so epoch 30 is the first
   with data from after the 320 s switch. *)
let test_transitions_regime_change () =
  let epoch_len = 500 in
  let trace = two_regime_trace ~seed:21 ~switch:320. ~until:620. in
  let src = Fleet.Source.of_trace ~paths:1 trace in
  let config = Fleet.Path_state.config ~lambda:0.9 ~scheme:(Fleet.Source.scheme src) () in
  let transitions = ref [] in
  let sched =
    Fleet.Scheduler.create
      ~on_transition:(fun tr -> transitions := tr :: !transitions)
      ~rng:(Stats.Rng.create 3) ~paths:1 config
  in
  let epochs = Probe.Trace.length trace / epoch_len in
  let states =
    Array.init epochs (fun _ ->
        Fleet.Scheduler.push sched ~path:0 (Fleet.Source.pull src ~path:0 ~len:epoch_len);
        ignore (Fleet.Scheduler.tick sched : int);
        conclusion_tag (Fleet.Scheduler.conclusion sched 0))
  in
  let transitions = List.rev !transitions in
  Alcotest.(check int) "epochs" 60 epochs;
  Alcotest.(check string) "strongly dominant just before the switch" "s" states.(29);
  let left =
    List.find_map
      (fun (tr : Fleet.Scheduler.transition) ->
        if tr.was = Some Dcl.Identify.Strongly_dominant then Some tr.epoch else None)
      transitions
  in
  Alcotest.(check bool) "leaves strongly-dominant at epoch 30 or 31" true
    (left = Some 30 || left = Some 31);
  Alcotest.(check string) "no dominant by epoch 35" "n" states.(35);
  List.iter
    (fun (tr : Fleet.Scheduler.transition) ->
      if tr.epoch > 35 then Alcotest.failf "transition at epoch %d" tr.epoch)
    transitions

(* --- path state edge cases --------------------------------------------- *)

let scheme5 = Dcl.Discretize.of_range ~m:5 ~lo:0.02 ~hi:0.07

let test_path_state_gates () =
  let config = Fleet.Path_state.config ~scheme:scheme5 () in
  let p = Fleet.Path_state.create config ~rng:(Stats.Rng.create 1) in
  let ws = Em.workspace () in
  Alcotest.(check bool) "empty batch is a no-op" false
    (Fleet.Path_state.update ~ws p [||]);
  Alcotest.(check bool) "all-loss first batch is dropped" false
    (Fleet.Path_state.update ~ws p (Array.make 8 None));
  Alcotest.(check bool) "still no model" true (Fleet.Path_state.model p = None);
  let batch = Array.init 64 (fun i -> if i mod 9 = 0 then None else Some (i mod 5)) in
  ignore (Fleet.Path_state.update ~ws p batch : bool);
  Alcotest.(check bool) "model after first mixed batch" true
    (Fleet.Path_state.model p <> None);
  Alcotest.(check int) "observations counted" 64 (Fleet.Path_state.observations p)

let test_config_validation () =
  Alcotest.check_raises "lambda out of range"
    (Invalid_argument "Fleet.Path_state.config: lambda must be in [0, 1]")
    (fun () ->
      ignore (Fleet.Path_state.config ~lambda:1.2 ~scheme:scheme5 ()));
  Alcotest.check_raises "lambda nan"
    (Invalid_argument "Fleet.Path_state.config: lambda must be in [0, 1]")
    (fun () ->
      ignore (Fleet.Path_state.config ~lambda:Float.nan ~scheme:scheme5 ()));
  Alcotest.check_raises "n non-positive"
    (Invalid_argument "Fleet.Path_state.config: n must be positive") (fun () ->
      ignore (Fleet.Path_state.config ~n:0 ~scheme:scheme5 ()))

let test_path_state_coast () =
  let config = Fleet.Path_state.config ~scheme:scheme5 () in
  let p = Fleet.Path_state.create config ~rng:(Stats.Rng.create 2) in
  (* Coasting an empty path is a no-op, not an error. *)
  Fleet.Path_state.coast p ~factor:0.5;
  check_float "still empty" 0. (Fleet.Path_state.weight p);
  let ws = Em.workspace () in
  let batch = Array.init 64 (fun i -> if i mod 9 = 0 then None else Some (i mod 5)) in
  ignore (Fleet.Path_state.update ~ws p batch : bool);
  let w0 = Fleet.Path_state.weight p in
  Fleet.Path_state.coast p ~factor:0.5;
  check_float "weight ages by the factor" (w0 /. 2.) (Fleet.Path_state.weight p);
  Alcotest.check_raises "factor out of range"
    (Invalid_argument "Fleet.Path_state.coast: factor must be in [0, 1]")
    (fun () -> Fleet.Path_state.coast p ~factor:1.5)

(* --- sketch gating ------------------------------------------------------ *)

(* Hand-built epochs so the gate's inputs are exact.  A hot batch loses
   a third of its probes and concentrates delays at the top symbol
   (loss EWMA ~0.33 >= 0.2 and drift ~1 >= 0.75: suspect on both
   signals); a cold batch is loss-free at the bottom symbols (loss 0,
   drift <= 0.25: calm under the 0.8 margin). *)
let hot_batch len = Array.init len (fun i -> if i mod 3 = 0 then None else Some 4)
let cold_batch len = Array.init len (fun i -> Some (i mod 2))

let gated_sched ?(gate = Sketch.Gate.config ()) ~paths () =
  let config = Fleet.Path_state.config ~scheme:scheme5 () in
  Fleet.Scheduler.create ~gate ~rng:(Stats.Rng.create 3) ~paths config

let test_gate_promotes_congested_within_h () =
  let h = 2 in
  let sched = gated_sched ~gate:(Sketch.Gate.config ~promote_after:h ()) ~paths:2 () in
  for e = 1 to h do
    Fleet.Scheduler.push sched ~path:0 (hot_batch 24);
    Fleet.Scheduler.push sched ~path:1 (cold_batch 24);
    ignore (Fleet.Scheduler.tick sched : int);
    let v p = Option.get (Fleet.Scheduler.gate_view sched p) in
    Alcotest.(check bool)
      (Printf.sprintf "hot path promoted iff epoch %d = H" e)
      (e = h) (v 0).Fleet.Scheduler.promoted_path;
    Alcotest.(check bool) "cold path stays quiet" false
      (v 1).Fleet.Scheduler.promoted_path
  done;
  Alcotest.(check int) "promoted count" 1 (Fleet.Scheduler.promoted_count sched);
  let gs = Option.get (Fleet.Scheduler.gate_stats sched) in
  Alcotest.(check int) "one promotion" 1 gs.Fleet.Scheduler.promotions;
  (* The gate steps before the queue/drop decision, so the hot path's
     promotion-epoch batch is already queued for EM; only its earlier
     H-1 batches were absorbed sketch-only, plus everything from the
     forever-quiet cold path. *)
  Alcotest.(check int) "skipped observations" ((h - 1 + h) * 24)
    gs.Fleet.Scheduler.sketch_only_observations;
  (* From the promotion epoch on, the hot path runs full inference and
     the cold path still does not. *)
  for _ = 1 to 6 do
    Fleet.Scheduler.push sched ~path:0 (hot_batch 24);
    Fleet.Scheduler.push sched ~path:1 (cold_batch 24);
    ignore (Fleet.Scheduler.tick sched : int)
  done;
  Alcotest.(check bool) "promoted path accumulates EM state" true
    (Fleet.Path_state.epochs (Fleet.Scheduler.path sched 0) > 0);
  Alcotest.(check int) "quiet path never entered EM" 0
    (Fleet.Path_state.epochs (Fleet.Scheduler.path sched 1));
  Alcotest.(check bool) "quiet path has no conclusion" true
    (Fleet.Scheduler.conclusion sched 1 = None)

let test_gate_loss_signal_masked_by_cms () =
  (* A loss-free path's loss signal must read exactly zero through the
     loss-count mask, whatever the EWMA holds; a lossy neighbour's
     count is its own exact losses, floor-halved at every tick. *)
  let sched = gated_sched ~paths:2 () in
  Fleet.Scheduler.push sched ~path:0 (cold_batch 32);
  Fleet.Scheduler.push sched ~path:1 (hot_batch 24);
  ignore (Fleet.Scheduler.tick sched : int);
  let v p = Option.get (Fleet.Scheduler.gate_view sched p) in
  Alcotest.(check int) "no losses estimated" 0 (v 0).Fleet.Scheduler.loss_estimate;
  check_float "loss ewma zero" 0. (v 0).Fleet.Scheduler.loss_ewma;
  Alcotest.(check int) "8 losses halved once" 4 (v 1).Fleet.Scheduler.loss_estimate;
  ignore (Fleet.Scheduler.tick sched : int);
  Alcotest.(check int) "halved again" 2 (v 1).Fleet.Scheduler.loss_estimate

(* A lossy no-DCL-shaped stream.  The loss mass must split ~2:1
   between the bottom and top symbols: the majority share at the
   bottom pins d-star to the first symbol, and F at 2 d-star ~ 2/3
   then rejects both the SDCL (0.995) and WDCL (0.935) thresholds.  An
   even 50/50 split would backfire: the VQD median lands mid-alphabet
   and 2 d-star walks off the end of the m=5 scheme, where F saturates
   to 1 and trivially accepts. *)
let mixed_batch len =
  Array.init len (fun i ->
      match i mod 16 with
      | 2 | 5 | 11 -> None (* two losses amid the 0s, one amid the 4s *)
      | k when k < 8 -> Some 0
      | _ -> Some 4)

let test_gate_demotes_settled_quiet_path () =
  (* Promote on [mixed_batch], let the EM settle on no-dominant, then
     go cold: the gate must demote after the configured streak while
     keeping the path's statistics and verdict warm. *)
  let sched =
    gated_sched
      ~gate:(Sketch.Gate.config ~promote_after:1 ~demote_after:3 ())
      ~paths:1 ()
  in
  let demoted = ref None in
  for e = 1 to 30 do
    Fleet.Scheduler.push sched ~path:0
      (if e <= 6 then mixed_batch 48 else cold_batch 48);
    ignore (Fleet.Scheduler.tick sched : int);
    let v = Option.get (Fleet.Scheduler.gate_view sched 0) in
    if !demoted = None && not v.Fleet.Scheduler.promoted_path then demoted := Some e
  done;
  Alcotest.(check bool) "eventually demoted" true (!demoted <> None);
  Alcotest.(check int) "promoted count back to zero" 0
    (Fleet.Scheduler.promoted_count sched);
  let gs = Option.get (Fleet.Scheduler.gate_stats sched) in
  Alcotest.(check int) "one demotion" 1 gs.Fleet.Scheduler.demotions;
  (* Demotion keeps the decayed statistics and the verdict visible. *)
  let p = Fleet.Scheduler.path sched 0 in
  Alcotest.(check bool) "statistics kept warm" true
    (Stats.Float_cmp.gt (Fleet.Path_state.weight p) 0.);
  Alcotest.(check bool) "no-dominant verdict kept" true
    (Fleet.Scheduler.conclusion sched 0 = Some Dcl.Identify.No_dominant)

let test_repromotion_ages_past_64 () =
  (* A path demoted for more than 64 epochs must re-enter full
     inference with its statistics aged by lambda^skipped, however many
     epochs it skipped. *)
  let sched =
    gated_sched
      ~gate:(Sketch.Gate.config ~promote_after:1 ~demote_after:3 ())
      ~paths:1 ()
  in
  let lambda = (Fleet.Path_state.config ~scheme:scheme5 ()).Fleet.Path_state.lambda in
  let p = Fleet.Scheduler.path sched 0 in
  let promoted () =
    (Option.get (Fleet.Scheduler.gate_view sched 0)).Fleet.Scheduler.promoted_path
  in
  (* Scheduler epoch of the path's last full-inference update. *)
  let last_em = ref (-1) in
  let step batch =
    let e = Fleet.Scheduler.epoch sched and before = Fleet.Path_state.epochs p in
    Fleet.Scheduler.push sched ~path:0 batch;
    ignore (Fleet.Scheduler.tick sched : int);
    if Fleet.Path_state.epochs p > before then last_em := e
  in
  for _ = 1 to 6 do
    step (mixed_batch 48)
  done;
  let budget = ref 30 in
  while promoted () && !budget > 0 do
    step (cold_batch 48);
    decr budget
  done;
  Alcotest.(check bool) "demoted" false (promoted ());
  let w_demote = Fleet.Path_state.weight p and dormant_since = !last_em in
  for _ = 1 to 70 do
    step (cold_batch 48)
  done;
  Alcotest.(check bool) "stays quiet while cold" false (promoted ());
  check_float "dormant statistics untouched" w_demote (Fleet.Path_state.weight p);
  (* All-loss batches lift the loss EWMA past its threshold within two
     epochs; the promotion-epoch batch is the first to reach EM. *)
  let len = 48 in
  let budget = ref 4 in
  while (not (promoted ())) && !budget > 0 do
    step (Array.make len None);
    decr budget
  done;
  Alcotest.(check bool) "re-promoted" true (promoted ());
  let promoted_at = Fleet.Scheduler.epoch sched - 1 in
  Alcotest.(check int) "promotion-epoch batch ran EM" promoted_at !last_em;
  let skipped = promoted_at - dormant_since - 1 in
  Alcotest.(check bool) "dormant past 64 epochs" true (skipped > 64);
  (* Catch-up aging, then the promotion epoch's own decay and append. *)
  check_float "weight = w_demote * lambda^skipped * lambda + len"
    ((w_demote *. Float.pow lambda (float_of_int skipped) *. lambda)
    +. float_of_int len)
    (Fleet.Path_state.weight p)

(* --- workspace reuse ----------------------------------------------------- *)

(* Paths of every shape share the calling domain's one workspace: its
   buffers only grow, and a sweep over a smaller path after a larger one
   must not read anything the larger one left behind. *)
let test_workspace_reuse_across_shapes () =
  Alcotest.(check bool) "domain workspace is stable" true
    (Em.domain_ws () == Em.domain_ws ());
  let batch = Array.init 96 (fun i -> if i mod 7 = 0 then None else Some (i mod 5)) in
  let run ~ws =
    let cfg = Fleet.Path_state.config ~n:1 ~scheme:scheme5 () in
    let p = Fleet.Path_state.create cfg ~rng:(Stats.Rng.create 4) in
    ignore (Fleet.Path_state.update ~ws p batch : bool);
    ignore (Fleet.Path_state.update ~ws p batch : bool);
    Option.get (Fleet.Path_state.model p)
  in
  let shared = Em.workspace () in
  let big_cfg = Fleet.Path_state.config ~n:3 ~scheme:scheme5 () in
  let big = Fleet.Path_state.create big_cfg ~rng:(Stats.Rng.create 3) in
  ignore (Fleet.Path_state.update ~ws:shared big batch : bool);
  let after_big = run ~ws:shared in
  let fresh = run ~ws:(Em.workspace ()) in
  check_same_floats "pi" fresh.Em.pi after_big.Em.pi;
  check_same_floats "a" fresh.Em.a after_big.Em.a;
  check_same_floats "c" fresh.Em.c after_big.Em.c

(* --- diagnosis timeline ------------------------------------------------ *)

let test_timeline_wraparound () =
  let tl = Fleet.Timeline.create ~capacity:3 in
  Alcotest.(check int) "capacity as requested" 3 (Fleet.Timeline.capacity tl);
  for e = 1 to 7 do
    Fleet.Timeline.record tl
      (Fleet.Timeline.Update
         {
           epoch = e;
           verdict = None;
           log_likelihood = -1.5;
           weight = float_of_int e;
           bound = None;
         })
  done;
  Alcotest.(check int) "total counts past capacity" 7 (Fleet.Timeline.total tl);
  Alcotest.(check int) "length capped at capacity" 3 (Fleet.Timeline.length tl);
  let epochs =
    List.map
      (function
        | Fleet.Timeline.Update u -> u.epoch
        | Fleet.Timeline.Gate g -> g.epoch
        | Fleet.Timeline.Reset r -> r.epoch)
      (Fleet.Timeline.entries tl)
  in
  Alcotest.(check (list int)) "newest window, oldest-first" [ 5; 6; 7 ] epochs

let test_timeline_entry_kinds_and_json () =
  let tl = Fleet.Timeline.create ~capacity:8 in
  Fleet.Timeline.record tl
    (Fleet.Timeline.Update
       {
         epoch = 1;
         verdict = Some Dcl.Identify.Strongly_dominant;
         log_likelihood = -2.25;
         weight = 32.;
         bound = Some 0.75;
       });
  Fleet.Timeline.record tl
    (Fleet.Timeline.Gate
       { epoch = 2; promoted = true; cause = "loss-ewma"; streak = 3 });
  Fleet.Timeline.record tl (Fleet.Timeline.Reset { epoch = 3 });
  Fleet.Timeline.record tl
    (Fleet.Timeline.Update
       {
         epoch = 4;
         verdict = None;
         log_likelihood = Float.neg_infinity;
         weight = 0.;
         bound = None;
       });
  Alcotest.(check int) "all entries retained" 4 (Fleet.Timeline.length tl);
  let js = Fleet.Timeline.to_json tl in
  let contains sub =
    let n = String.length js and m = String.length sub in
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i + m <= n do
      if String.sub js !i m = sub then found := true else incr i
    done;
    !found
  in
  Alcotest.(check bool) "verdict named" true (contains "strongly-dominant");
  Alcotest.(check bool) "gate cause present" true (contains "loss-ewma");
  Alcotest.(check bool) "reset entry present" true (contains "reset");
  (* Non-finite floats must not leak into the JSON (they are not valid
     JSON number literals) — the exporter nulls them. *)
  Alcotest.(check bool) "no bare infinity token" false (contains "inf");
  Alcotest.(check bool) "non-finite exported as null" true (contains "null")

let test_timeline_capacity_zero () =
  let tl = Fleet.Timeline.create ~capacity:0 in
  Fleet.Timeline.record tl (Fleet.Timeline.Reset { epoch = 1 });
  Alcotest.(check int) "record is a no-op" 0 (Fleet.Timeline.total tl);
  Alcotest.(check int) "no entries" 0 (List.length (Fleet.Timeline.entries tl));
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Fleet.Timeline.create: capacity must be non-negative")
    (fun () -> ignore (Fleet.Timeline.create ~capacity:(-1)))

(* Path_state threads every update, gate flip, and reset through its
   timeline: drive one path with the scheduler's own machinery and
   check the history lines up with the observable state. *)
let test_path_state_records_timeline () =
  let cfg =
    Fleet.Path_state.config ~timeline_capacity:16
      ~scheme:(Dcl.Discretize.of_range ~m:5 ~lo:0.02 ~hi:0.07)
      ()
  in
  let p = Fleet.Path_state.create cfg ~rng:(Stats.Rng.create 11) in
  let ws = Em.workspace () in
  let batch =
    Array.init 64 (fun i -> if i mod 9 = 0 then None else Some (i mod 5))
  in
  ignore (Fleet.Path_state.update ~ws p batch : bool);
  ignore (Fleet.Path_state.update ~ws ~epoch:9 p batch : bool);
  let tl = Fleet.Path_state.timeline p in
  Alcotest.(check int) "one entry per update" 2 (Fleet.Timeline.total tl);
  match Fleet.Timeline.entries tl with
  | [ Fleet.Timeline.Update u1; Fleet.Timeline.Update u2 ] ->
      Alcotest.(check int) "default epoch stamp is the epoch counter" 1
        u1.epoch;
      Alcotest.(check int) "explicit epoch stamp wins" 9 u2.epoch;
      Alcotest.(check bool) "recorded weight is positive" true
        (u2.weight > 0.)
  | _ -> Alcotest.fail "expected exactly two Update entries"

(* --- source ------------------------------------------------------------ *)

let test_synthetic_source_deterministic () =
  let mk () = Fleet.Source.synthetic ~rng:(Stats.Rng.create 5) ~paths:4 () in
  let s1 = mk () and s2 = mk () in
  let b1 = Fleet.Source.pull s1 ~path:2 ~len:50 in
  let b2 = Fleet.Source.pull s2 ~path:2 ~len:50 in
  Alcotest.(check bool) "seeded pulls replay bitwise" true (b1 = b2);
  Alcotest.(check bool) "ground truth available" true
    (Fleet.Source.ground_truth s1 0 <> None)

let small_trace () =
  let records =
    Array.init 40 (fun i ->
        let obs =
          if i mod 7 = 3 then Probe.Trace.Lost
          else Probe.Trace.Delay (0.02 +. (0.001 *. float_of_int (i mod 11)))
        in
        { Probe.Trace.send_time = 0.02 *. float_of_int i; obs; truth = None })
  in
  Probe.Trace.create ~records ~interval:0.02 ~base_delay:0.02 ~hop_count:1

(* Path 0 of a one-path replay is the symbolized trace in order from
   record 0, and wraps back to record 0 only once pulled past the
   end. *)
let test_of_trace_straight_replay () =
  let trace = small_trace () in
  let src = Fleet.Source.of_trace ~paths:1 trace in
  let symbols = Dcl.Discretize.symbolize (Fleet.Source.scheme src) trace in
  let n = Array.length symbols in
  let first = Fleet.Source.pull src ~path:0 ~len:15 in
  let rest = Fleet.Source.pull src ~path:0 ~len:(n - 15) in
  Alcotest.(check bool) "whole trace in order" true (Array.append first rest = symbols);
  Alcotest.(check bool) "next pull wraps to record 0" true
    (Fleet.Source.pull src ~path:0 ~len:3 = Array.sub symbols 0 3)

let test_of_trace_rejects_narrow_m () =
  let trace = small_trace () in
  List.iter
    (fun m ->
      Alcotest.check_raises
        (Printf.sprintf "m = %d" m)
        (Invalid_argument "Fleet.Source.of_trace: m must be at least 3")
        (fun () -> ignore (Fleet.Source.of_trace ~m ~paths:1 trace)))
    [ 0; 1; 2 ];
  Alcotest.(check int) "m = 3 accepted" 3
    (Fleet.Source.scheme (Fleet.Source.of_trace ~m:3 ~paths:1 trace)).Dcl.Discretize.m

(* The congested-template split is one integer rounding decision, for
   every fraction in [0, 1] — the boundary the old per-index float
   comparison could misround. *)
let prop_congested_templates_rounds =
  QCheck.Test.make ~name:"congested count = round(fraction * templates)"
    ~count:500
    QCheck.(pair (int_range 1 64) (float_range 0. 1.))
    (fun (templates, fraction) ->
      let c = Fleet.Source.congested_templates ~templates ~fraction in
      c = int_of_float (Float.round (fraction *. float_of_int templates))
      && c >= 0 && c <= templates)

let test_congested_templates_boundaries () =
  Alcotest.(check int) "zero fraction" 0
    (Fleet.Source.congested_templates ~templates:8 ~fraction:0.);
  Alcotest.(check int) "full fraction" 8
    (Fleet.Source.congested_templates ~templates:8 ~fraction:1.);
  (* A representable exact half rounds away from zero, and the count
     is computed once — not re-derived per template index. *)
  Alcotest.(check int) "half rounds up" 1
    (Fleet.Source.congested_templates ~templates:8 ~fraction:0.0625);
  Alcotest.(check int) "one in ten" 1
    (Fleet.Source.congested_templates ~templates:10 ~fraction:0.1)

let () =
  Alcotest.run "fleet"
    [
      ( "incremental-em",
        [
          QCheck_alcotest.to_alcotest prop_single_append_matches_em_step;
          Alcotest.test_case "single append bitwise" `Quick test_single_append_bitwise;
          Alcotest.test_case "weight and counts" `Quick test_append_weight_and_counts;
          Alcotest.test_case "rejects out-of-range symbol" `Quick
            test_append_rejects_bad_symbol;
        ] );
      ( "decay",
        [
          Alcotest.test_case "scales statistics" `Quick test_decay_scales_everything;
          Alcotest.test_case "identity at 1" `Quick test_decay_identity_at_one;
          Alcotest.test_case "validation" `Quick test_decay_validation;
        ] );
      ( "carry",
        [
          Alcotest.test_case "logL additivity" `Quick test_carry_loglik_additivity;
          Alcotest.test_case "carry off" `Quick test_carry_off_is_independent;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "serial = pooled at 2/4/8" `Quick test_pool_determinism;
          Alcotest.test_case "gated serial = pooled at 2/4/8" `Quick
            test_gated_pool_determinism;
          Alcotest.test_case "rerun identical" `Quick test_fleet_reruns_identically;
          Alcotest.test_case "gated push order irrelevant" `Quick
            test_gated_push_order_irrelevant;
          Alcotest.test_case "push rejects out-of-range symbol" `Quick
            test_push_rejects_bad_symbol;
        ] );
      ( "transitions",
        [
          Alcotest.test_case "consistent stream" `Quick test_transitions_consistent;
          Alcotest.test_case "detects a regime change on a one-path replay" `Quick
            test_transitions_regime_change;
        ] );
      ( "path-state",
        [
          Alcotest.test_case "gates" `Quick test_path_state_gates;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "coast" `Quick test_path_state_coast;
        ] );
      ( "gating",
        [
          Alcotest.test_case "promotes congested within H" `Quick
            test_gate_promotes_congested_within_h;
          Alcotest.test_case "loss signal masked by count-min" `Quick
            test_gate_loss_signal_masked_by_cms;
          Alcotest.test_case "demotes settled quiet path" `Quick
            test_gate_demotes_settled_quiet_path;
          Alcotest.test_case "re-promotion ages by lambda^k past 64" `Quick
            test_repromotion_ages_past_64;
        ] );
      ( "workspace-reuse",
        [
          Alcotest.test_case "smaller path after larger" `Quick
            test_workspace_reuse_across_shapes;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "ring wraparound" `Quick test_timeline_wraparound;
          Alcotest.test_case "entry kinds and json" `Quick
            test_timeline_entry_kinds_and_json;
          Alcotest.test_case "capacity zero" `Quick test_timeline_capacity_zero;
          Alcotest.test_case "path-state records history" `Quick
            test_path_state_records_timeline;
        ] );
      ( "source",
        [
          Alcotest.test_case "deterministic" `Quick
            test_synthetic_source_deterministic;
          QCheck_alcotest.to_alcotest prop_congested_templates_rounds;
          Alcotest.test_case "congested-count boundaries" `Quick
            test_congested_templates_boundaries;
          Alcotest.test_case "of_trace straight replay" `Quick
            test_of_trace_straight_replay;
          Alcotest.test_case "of_trace rejects m below 3" `Quick
            test_of_trace_rejects_narrow_m;
        ] );
    ]
