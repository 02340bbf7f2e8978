(* Per-path streaming state: decayed EM sufficient statistics, the
   current model, and the current SDCL/WDCL conclusion.

   One [update] is one online-EM iteration (decay, append the batch's
   statistics, M-step) followed by a re-test of the hypothesis tests on
   the VQD read off the decayed loss counts — the streaming analogue of
   Identify.run's fit-then-test pipeline, at O(batch) cost per epoch
   instead of O(history). *)

let m_resets =
  Obs.Counter.make
    ~help:"Fleet paths whose model was restarted after a zero-likelihood \
           degeneracy"
    "dcl_fleet_path_resets_total"

type config = { n : int; lambda : float; scheme : Dcl.Discretize.t }

let config ?(n = 2) ?(lambda = 0.9) ~scheme () =
  if n <= 0 then invalid_arg "Fleet.Path_state.config: n must be positive";
  if Float.is_nan lambda || lambda < 0. || lambda > 1. then
    invalid_arg "Fleet.Path_state.config: lambda must be in [0, 1]";
  { n; lambda; scheme }

(* The re-test gates: an effective (decayed) observation count, and a
   decayed loss mass below which there is no meaningful VQD. *)
let min_weight = 64.
let min_loss_mass = 1.

(* Diagnosis-history entries retained per path. *)
let timeline_capacity = 64

let symbols cfg = cfg.scheme.Dcl.Discretize.m

type t = {
  config : config;
  rng : Stats.Rng.t;
  stats : Em.Incremental.stats;
  timeline : Timeline.t;
  mutable model : Em.model option;
  mutable conclusion : Dcl.Identify.conclusion option;
  mutable bound : float option;
  mutable epochs : int;
  mutable observations : int;
  mutable resets : int;
}

let create config ~rng =
  {
    config;
    rng;
    stats = Em.Incremental.create ~s:(config.n * symbols config) ~m:(symbols config);
    timeline = Timeline.create ~capacity:timeline_capacity;
    model = None;
    conclusion = None;
    bound = None;
    epochs = 0;
    observations = 0;
    resets = 0;
  }

let model t = t.model
let conclusion t = t.conclusion
let bound t = t.bound
let epochs t = t.epochs
let observations t = t.observations
let resets t = t.resets
let weight t = Em.Incremental.weight t.stats
let timeline t = t.timeline

(* Catch-up decay for a path whose epochs went by without updates (a
   demoted path re-entering full inference): one multiplication by
   lambda^k stands in for the k per-epoch decays it missed, so its
   decayed statistics are warm but correctly aged.  A path with no
   appended batch yet has nothing to age. *)
let coast t ~factor =
  if Stats.Float_cmp.lt factor 0. || Stats.Float_cmp.gt factor 1. then
    invalid_arg "Fleet.Path_state.coast: factor must be in [0, 1]";
  if Em.Incremental.batches t.stats > 0 then
    Em.Incremental.decay t.stats ~lambda:factor

let vqd t =
  let mass = Em.Incremental.loss_mass t.stats in
  let total = Array.fold_left ( +. ) 0. mass in
  if Stats.Float_cmp.geq total min_loss_mass then
    Some (Dcl.Vqd.of_pmf t.config.scheme mass)
  else None

(* Re-run the hypothesis tests against the streaming VQD.  Gated on an
   effective sample size ([min_weight] decayed observations) and a
   minimum decayed loss mass: with no losses yet there is no VQD, and
   with a fraction of one expected loss the tests would amplify one
   posterior row into a verdict. *)
let retest t =
  if Stats.Float_cmp.geq (Em.Incremental.weight t.stats) min_weight then
    match vqd t with
    | None -> ()
    | Some vqd ->
        let v = Dcl.Identify.conclude vqd in
        t.conclusion <- Some v.Dcl.Identify.conclusion;
        t.bound <- v.Dcl.Identify.bound

let update ~ws ?epoch t batch =
  let len = Array.length batch in
  if len = 0 then false
  else begin
    let model =
      match t.model with
      | Some model -> Some model
      | None ->
          (* First batch (or post-reset): data-driven starting point.
             An all-loss first batch cannot seed the informed
             initializer; hold the batch's observations back until a
             delay arrives.  Once a model exists, all-loss batches are
             handled by the missing-value emission. *)
          let m = symbols t.config in
          if Array.exists (fun o -> o <> m) batch then
            Some (Mmhd.init_informed t.rng ~n:t.config.n ~m batch)
          else None
    in
    match model with
    | None -> false
    | Some model -> (
        t.epochs <- t.epochs + 1;
        t.observations <- t.observations + len;
        let epoch = match epoch with Some e -> e | None -> t.epochs in
        Em.Incremental.decay t.stats ~lambda:t.config.lambda;
        let was = t.conclusion in
        match Em.Incremental.append ~ws t.stats model batch with
        | ll ->
            t.model <- Some (Em.Incremental.m_step t.stats model);
            retest t;
            Timeline.record t.timeline
              (Timeline.Update
                 {
                   epoch;
                   verdict = t.conclusion;
                   log_likelihood = ll;
                   weight = Em.Incremental.weight t.stats;
                   bound = t.bound;
                 });
            t.conclusion <> was
        | exception Em.Zero_likelihood _ ->
            (* The M-step floors make this essentially impossible once a
               model has been re-estimated, but a pathological first
               model can still produce an impossible observation.
               Restart the path from scratch; the next batch re-seeds
               via the informed initializer. *)
            Em.Incremental.reset t.stats;
            t.model <- None;
            t.conclusion <- None;
            t.bound <- None;
            t.resets <- t.resets + 1;
            Obs.Counter.incr m_resets;
            Timeline.record t.timeline (Timeline.Reset { epoch });
            Obs.Trace.instant "fleet.reset" epoch;
            was <> None)
  end
