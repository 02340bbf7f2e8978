(* Epoch scheduler: batch every active path's pending observations and
   fan the per-path updates (online-EM iteration + re-test) across the
   persistent Stats.Pool, one item per path.

   Optionally gated by a sketch triage front end (Sketch.Gate): quiet
   paths are tracked only by O(1) per-path streaming state — a loss
   EWMA, a Robbins-Monro delay-quantile tracker and a decayed loss
   count — and only paths the gate promotes hold pending batches and
   run full inference.  All of it is updated at push time on the
   driver's domain, so the pooled tick still touches nothing shared.

   Determinism contract (DESIGN.md §11-12): each item touches only its
   own path's state and the evaluating domain's workspace
   ([Em.domain_ws]), which holds sweep scratch but no statistics; every
   path draws from its own RNG pre-split at creation; and conclusion
   transitions are collected into per-item slots and emitted after the
   pool drains, in ascending path index.  The pooled tick is therefore
   bit-identical to the serial one — scheduling chooses which domain
   runs a path, never what the path computes or the order observers
   see results.  Gating keeps every signal per path, so pushes to
   different paths never interact and the order in which a driver
   pushes paths within an epoch does not matter. *)

let h_epoch =
  Obs.Histogram.make ~help:"Wall time of one fleet epoch tick"
    "dcl_fleet_epoch_seconds"

let m_ticks = Obs.Counter.make ~help:"Fleet epoch ticks run" "dcl_fleet_ticks_total"

let m_updates =
  Obs.Counter.make ~help:"Per-path epoch updates performed"
    "dcl_fleet_path_updates_total"

let m_observations =
  Obs.Counter.make ~help:"Observations consumed by fleet epoch updates"
    "dcl_fleet_observations_total"

let m_transitions =
  Obs.Counter.make ~help:"Per-path conclusion transitions emitted"
    "dcl_fleet_transitions_total"

let m_promotions =
  Obs.Counter.make ~help:"Paths promoted from sketch-only tracking to full inference"
    "dcl_fleet_promotions_total"

let m_demotions =
  Obs.Counter.make ~help:"Paths demoted from full inference back to sketch-only tracking"
    "dcl_fleet_demotions_total"

let m_sketch_only_observations =
  Obs.Counter.make
    ~help:"Observations absorbed by the sketch front end without full inference"
    "dcl_fleet_sketch_only_observations_total"

let g_paths = Obs.Gauge.make ~help:"Paths monitored by the fleet" "dcl_fleet_paths"

let g_active =
  Obs.Gauge.make ~help:"Paths with pending observations at the last tick"
    "dcl_fleet_active_paths"

let g_promoted =
  Obs.Gauge.make ~help:"Paths currently promoted to full inference"
    "dcl_fleet_promoted_paths"

type transition = {
  path : int;
  epoch : int;
  was : Dcl.Identify.conclusion option;
  now : Dcl.Identify.conclusion option;
}

type gate_stats = {
  promoted : int;
  promotions : int;
  demotions : int;
  sketch_only_observations : int;
}

(* Gate runtime: per-path estimators and loss counts, plus the
   forgetting factor that ages a re-promoted path's EM statistics.
   Sized by the full path count; the EM side — pending batches, pool
   items, workspaces — is sized by the *promoted* count. *)
type gating = {
  g_config : Sketch.Gate.config;
  g_lambda : float;
  g_losses : int array; (* losses seen, halved every epoch *)
  g_loss : Sketch.Estimators.Ewma.t array;
  g_quant : Sketch.Estimators.Quantile.t array;
  g_gates : Sketch.Gate.t array;
  g_last_eval : int array; (* epoch of the path's last gate evaluation *)
  g_last_em : int array; (* epoch of the path's last full-inference update *)
  mutable g_promoted : int;
  mutable g_promotions : int;
  mutable g_demotions : int;
  mutable g_skipped_obs : int;
}

type t = {
  domains : int;
  m : int; (* the scheme's m: pushed symbols lie in [0, m], m a loss *)
  on_transition : (transition -> unit) option;
  paths : Path_state.t array;
  pending : Em.observation array list array; (* newest batch first *)
  active : int array; (* scratch: indices updated this tick *)
  slots : transition option array; (* scratch: per-item transition *)
  gating : gating option;
  mutable epoch : int;
}

(* Fixed small chunk: epoch items are cheap and unevenly costed (paths
   without losses re-test trivially; fresh paths run the informed
   initializer), so a small chunk bounds the straggler tail.  Chunking
   never affects results. *)
let pool_chunk = 64

(* The loss EWMA's smoothing factor: ~7-epoch memory, enough to smooth
   a single noisy batch without hiding a persistent shift. *)
let ewma_alpha = 0.15

(* The tracked delay quantile.  0.75 splits the template shapes the
   tests themselves split: a strongly dominant VQD concentrates its
   delay mass at the top symbols (high 0.75-quantile), a no-DCL shape
   keeps it near the propagation floor. *)
let quantile_p = 0.75

let make_gating config ~paths g_config =
  let m = config.Path_state.scheme.Dcl.Discretize.m in
  {
    g_config;
    g_lambda = config.Path_state.lambda;
    g_losses = Array.make paths 0;
    g_loss = Array.init paths (fun _ -> Sketch.Estimators.Ewma.make ~alpha:ewma_alpha);
    g_quant =
      Array.init paths (fun _ ->
          Sketch.Estimators.Quantile.make ~p:quantile_p ~lo:0.
            ~hi:(float_of_int (m - 1)));
    g_gates = Array.init paths (fun _ -> Sketch.Gate.create ());
    g_last_eval = Array.make paths (-1);
    g_last_em = Array.make paths 0;
    g_promoted = 0;
    g_promotions = 0;
    g_demotions = 0;
    g_skipped_obs = 0;
  }

let create ?(domains = 1) ?on_transition ?gate ~rng ~paths config =
  if paths <= 0 then invalid_arg "Fleet.Scheduler.create: paths must be positive";
  if domains <= 0 then
    invalid_arg "Fleet.Scheduler.create: domains must be positive";
  Obs.Gauge.set g_paths (float_of_int paths);
  {
    domains;
    m = config.Path_state.scheme.Dcl.Discretize.m;
    on_transition;
    paths =
      Array.init paths (fun _ -> Path_state.create config ~rng:(Stats.Rng.split rng));
    pending = Array.make paths [];
    active = Array.make paths 0;
    slots = Array.make paths None;
    gating = Option.map (make_gating config ~paths) gate;
    epoch = 0;
  }

let path_count t = Array.length t.paths
let epoch t = t.epoch

let path t i =
  if i < 0 || i >= Array.length t.paths then
    invalid_arg "Fleet.Scheduler.path: index out of range";
  t.paths.(i)

let conclusion t i = Path_state.conclusion (path t i)

let promoted_count t =
  match t.gating with None -> Array.length t.paths | Some g -> g.g_promoted

let gate_stats t =
  Option.map
    (fun g ->
      {
        promoted = g.g_promoted;
        promotions = g.g_promotions;
        demotions = g.g_demotions;
        sketch_only_observations = g.g_skipped_obs;
      })
    t.gating

type gate_view = {
  promoted_path : bool;
  loss_ewma : float;
  drift : float;
  loss_estimate : int;
}

let gate_view t i =
  ignore (path t i : Path_state.t);
  Option.map
    (fun g ->
      {
        promoted_path = Sketch.Gate.promoted g.g_gates.(i);
        loss_ewma = Sketch.Estimators.Ewma.value g.g_loss.(i);
        drift = Sketch.Estimators.Quantile.elevation g.g_quant.(i);
        loss_estimate = g.g_losses.(i);
      })
    t.gating

(* The sketch pass over one pushed batch: fold every observation into
   the path's estimators and loss count, then — once per epoch, at the
   path's first push — run the gate.  Promotion ages the path's dormant
   EM statistics by lambda^skipped so re-promotion is warm but correct;
   demotion leaves the path's model and conclusion in place (the
   verdict stays visible, the statistics merely stop updating until
   the gate re-promotes). *)
let gated_push t g ~path:pidx batch =
  let len = Array.length batch in
  let losses = ref 0 in
  let quant = g.g_quant.(pidx) and m = t.m in
  for i = 0 to len - 1 do
    let y = Array.unsafe_get batch i in
    if y = m then incr losses
    else Sketch.Estimators.Quantile.update quant (float_of_int y)
  done;
  g.g_losses.(pidx) <- g.g_losses.(pidx) + !losses;
  let ewma = g.g_loss.(pidx) in
  (* Coast the EWMA over epochs the path was not pushed at all, so a
     sparsely probed path's stale loss estimate decays like everyone
     else's. *)
  let missed = t.epoch - g.g_last_eval.(pidx) - 1 in
  if g.g_last_eval.(pidx) >= 0 && missed > 0 then
    Sketch.Estimators.Ewma.coast ewma missed;
  Sketch.Estimators.Ewma.update ewma (float_of_int !losses /. float_of_int len);
  if g.g_last_eval.(pidx) < t.epoch then begin
    g.g_last_eval.(pidx) <- t.epoch;
    (* The loss signal is the EWMA masked by the decayed loss count:
       a zero count proves a loss-free decayed window, so an EWMA tail
       from an old burst cannot re-promote the path. *)
    let loss =
      if g.g_losses.(pidx) = 0 then 0.
      else Sketch.Estimators.Ewma.value ewma
    in
    let drift = Sketch.Estimators.Quantile.elevation quant in
    let p = t.paths.(pidx) in
    let settled = Path_state.conclusion p = Some Dcl.Identify.No_dominant in
    (* The cause is both the gate's suspect input and the forensic
       record of which signal crossed. *)
    let cause = Sketch.Gate.suspect_cause g.g_config ~loss ~drift in
    let streak_before = Sketch.Gate.streak g.g_gates.(pidx) in
    match
      Sketch.Gate.step g.g_config g.g_gates.(pidx) ~suspect:(cause <> None)
        ~calm:(Sketch.Gate.calm g.g_config ~loss ~drift)
        ~settled
    with
    | Sketch.Gate.Stay -> ()
    | Sketch.Gate.Promote ->
        g.g_promoted <- g.g_promoted + 1;
        g.g_promotions <- g.g_promotions + 1;
        Obs.Counter.incr m_promotions;
        let why =
          match cause with Some c -> Sketch.Gate.cause_name c | None -> "suspect"
        in
        Timeline.record (Path_state.timeline p)
          (Timeline.Gate
             {
               epoch = t.epoch;
               promoted = true;
               cause = why;
               streak = streak_before + 1;
             });
        Obs.Trace.instant_d "gate.promote" why pidx;
        let skipped = t.epoch - g.g_last_em.(pidx) - 1 in
        if skipped > 0 then
          Path_state.coast p ~factor:(Float.pow g.g_lambda (float_of_int skipped))
    | Sketch.Gate.Demote ->
        g.g_promoted <- g.g_promoted - 1;
        g.g_demotions <- g.g_demotions + 1;
        Obs.Counter.incr m_demotions;
        Timeline.record (Path_state.timeline p)
          (Timeline.Gate
             {
               epoch = t.epoch;
               promoted = false;
               cause = "calm";
               streak = streak_before + 1;
             });
        Obs.Trace.instant_d "gate.demote" "calm" pidx
  end;
  if Sketch.Gate.promoted g.g_gates.(pidx) then
    t.pending.(pidx) <- batch :: t.pending.(pidx)
  else begin
    g.g_skipped_obs <- g.g_skipped_obs + len;
    if Obs.enabled () then Obs.Counter.add m_sketch_only_observations len
  end

let push t ~path batch =
  if path < 0 || path >= Array.length t.paths then
    invalid_arg "Fleet.Scheduler.push: path index out of range";
  (* Check the whole batch before any state changes: a bad symbol would
     otherwise surface only inside the next tick's pool job. *)
  Em.check_symbols ~who:"Fleet.Scheduler.push" ~m:t.m batch;
  if Array.length batch > 0 then
    match t.gating with
    | None -> t.pending.(path) <- batch :: t.pending.(path)
    | Some g -> gated_push t g ~path batch

(* Concatenate a path's pending batches in arrival order.  The common
   one-batch-per-epoch case reuses the pushed array. *)
let drain_pending t pidx =
  match t.pending.(pidx) with
  | [] -> [||]
  | [ b ] ->
      t.pending.(pidx) <- [];
      b
  | newest_first ->
      t.pending.(pidx) <- [];
      Array.concat (List.rev newest_first)

let tick t =
  let n_active = ref 0 in
  for pidx = 0 to Array.length t.paths - 1 do
    match t.pending.(pidx) with
    | [] -> ()
    | _ :: _ ->
        t.active.(!n_active) <- pidx;
        incr n_active
  done;
  let n = !n_active in
  let t0 = Obs.Span.start () in
  Obs.Trace.span_begin "fleet.epoch" t.epoch;
  if n > 0 then begin
    (* Size the pool fan-out by the work actually promoted this epoch:
       waking eight domains for a handful of promoted paths costs more
       in queue traffic than it saves.  Participant count never affects
       results (determinism contract). *)
    let participants = min t.domains (1 + ((n - 1) / pool_chunk)) in
    Stats.Pool.run ~chunk:pool_chunk ~participants n (fun i ->
        let pidx = t.active.(i) in
        let p = t.paths.(pidx) in
        let batch = drain_pending t pidx in
        let was = Path_state.conclusion p in
        let changed =
          Path_state.update ~ws:(Em.domain_ws ()) ~epoch:t.epoch p batch
        in
        if Obs.enabled () then Obs.Counter.add m_observations (Array.length batch);
        t.slots.(i) <-
          (if changed then
             Some { path = pidx; epoch = t.epoch; was; now = Path_state.conclusion p }
           else None))
  end;
  (match t.gating with
  | None -> ()
  | Some g ->
      (* Age the loss counts once per epoch, mirroring the per-path
         EWMA decay, and record who ran full inference (for warm
         re-promotion's catch-up aging). *)
      for i = 0 to Array.length g.g_losses - 1 do
        g.g_losses.(i) <- g.g_losses.(i) asr 1
      done;
      for i = 0 to n - 1 do
        g.g_last_em.(t.active.(i)) <- t.epoch
      done;
      Obs.Gauge.set g_promoted (float_of_int g.g_promoted));
  t.epoch <- t.epoch + 1;
  (* Ascending-path-index emission, after the pool drains: the
     operator-facing event order is a pure function of the inputs. *)
  for i = 0 to n - 1 do
    (match t.slots.(i) with
    | None -> ()
    | Some tr -> (
        Obs.Counter.incr m_transitions;
        Obs.Trace.instant_d "fleet.transition" (Dcl.Identify.verdict_name tr.now) tr.path;
        match t.on_transition with Some f -> f tr | None -> ()));
    t.slots.(i) <- None
  done;
  Obs.Trace.span_end "fleet.epoch";
  Obs.Span.stop h_epoch t0;
  if Obs.enabled () then begin
    Obs.Counter.incr m_ticks;
    Obs.Counter.add m_updates n;
    Obs.Gauge.set g_active (float_of_int n);
    Obs.Runtime.sample ()
  end;
  n

let fingerprint t =
  (* Order-sensitive fold over every path's model parameters and
     conclusion: any bitwise divergence between two fleets (e.g. a
     pooled vs a serial run) changes the fingerprint. *)
  let h = ref 0L in
  let mix bits = h := Int64.add (Int64.mul !h 1000003L) bits in
  let mixf x = mix (Int64.bits_of_float x) in
  let mixi i = mix (Int64.of_int i) in
  Array.iter
    (fun p ->
      (match Path_state.model p with
      | None -> mixi 0
      | Some (model : Em.model) ->
          mixi 1;
          Array.iter mixf model.Em.pi;
          Array.iter mixf model.Em.a;
          Array.iter mixf model.Em.c);
      mixi
        (match Path_state.conclusion p with
        | None -> 0
        | Some Dcl.Identify.Strongly_dominant -> 1
        | Some Dcl.Identify.Weakly_dominant -> 2
        | Some Dcl.Identify.No_dominant -> 3);
      mixf (Path_state.weight p))
    t.paths;
  (* When gated, the sketch layer is part of the observable state:
     divergent gate decisions must change the fingerprint even if the
     surviving models happen to agree. *)
  (match t.gating with
  | None -> ()
  | Some g ->
      for i = 0 to Array.length t.paths - 1 do
        mixi (if Sketch.Gate.promoted g.g_gates.(i) then 1 else 0);
        mixi (Sketch.Gate.streak g.g_gates.(i));
        mixf (Sketch.Estimators.Ewma.value g.g_loss.(i));
        mixf (Sketch.Estimators.Quantile.value g.g_quant.(i));
        mixi g.g_losses.(i)
      done;
      mixi g.g_promoted;
      mixi g.g_promotions;
      mixi g.g_demotions;
      mixi g.g_skipped_obs);
  Printf.sprintf "%016Lx" !h
