(* Promotion/demotion state machine with hysteresis: the per-path
   policy core of the sketch-gated triage front end.

   A path is either Quiet (tracked only by sketches) or Promoted
   (running full incremental EM + SDCL/WDCL re-tests).  Crossing a
   promotion threshold must persist for [promote_after] consecutive
   epochs before the path is promoted; demotion is deliberately more
   conservative — the signals must sit below a margin-shrunk threshold
   AND the EM side must have settled on a no-dominant verdict, for
   [demote_after] consecutive epochs — so delay-reactive cross-traffic
   that suppresses its own signal (the hard cases in "Common Problems
   in Delay-Based Congestion Control Algorithms") is not dropped from
   full inference the moment it backs off. *)

type config = {
  loss_threshold : float;
  drift_threshold : float;
  promote_after : int;
  demote_after : int;
}

let config ?(loss_threshold = 0.2) ?(drift_threshold = 0.75) ?(promote_after = 2)
    ?(demote_after = 4) () =
  if Stats.Float_cmp.lt loss_threshold 0. then
    invalid_arg "Sketch.Gate.config: loss_threshold must be non-negative";
  if Stats.Float_cmp.lt drift_threshold 0. then
    invalid_arg "Sketch.Gate.config: drift_threshold must be non-negative";
  if promote_after < 1 then
    invalid_arg "Sketch.Gate.config: promote_after must be positive";
  if demote_after < 1 then
    invalid_arg "Sketch.Gate.config: demote_after must be positive";
  { loss_threshold; drift_threshold; promote_after; demote_after }

type cause = Loss | Drift | Both

(* Static strings so forensic consumers (trace events, timelines) can
   store the cause without allocating per emission. *)
let cause_name = function
  | Loss -> "loss-ewma"
  | Drift -> "drift"
  | Both -> "loss-ewma+drift"

let suspect_cause cfg ~loss ~drift =
  let l = Stats.Float_cmp.geq loss cfg.loss_threshold in
  let d = Stats.Float_cmp.geq drift cfg.drift_threshold in
  match (l, d) with
  | true, true -> Some Both
  | true, false -> Some Loss
  | false, true -> Some Drift
  | false, false -> None

(* Hysteresis: calm means below this fraction of each promotion
   threshold. *)
let demote_margin = 0.8

let calm cfg ~loss ~drift =
  Stats.Float_cmp.lt loss (demote_margin *. cfg.loss_threshold)
  && Stats.Float_cmp.lt drift (demote_margin *. cfg.drift_threshold)

type t = { mutable promoted : bool; mutable streak : int }

let create () = { promoted = false; streak = 0 }
let promoted t = t.promoted
let streak t = t.streak

type decision = Stay | Promote | Demote

let step cfg t ~suspect ~calm ~settled =
  if t.promoted then
    if calm && settled then begin
      t.streak <- t.streak + 1;
      if t.streak >= cfg.demote_after then begin
        t.promoted <- false;
        t.streak <- 0;
        Demote
      end
      else Stay
    end
    else begin
      t.streak <- 0;
      Stay
    end
  else if suspect then begin
    t.streak <- t.streak + 1;
    if t.streak >= cfg.promote_after then begin
      t.promoted <- true;
      t.streak <- 0;
      Promote
    end
    else Stay
  end
  else begin
    t.streak <- 0;
    Stay
  end
