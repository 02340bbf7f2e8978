(* Streaming per-path estimators for the triage front end: a loss-rate
   EWMA and a Robbins-Monro delay-quantile tracker, each a few words of
   exact scalar state per path.

   The Robbins-Monro 1/n gain is quantized to powers of two of the
   observation count, so an update computes its step with one exact
   [ldexp] instead of a division. *)

module Ewma = struct
  (* Written as [(1 - alpha) * v + alpha * x] (not [v + alpha * (x - v)])
     so that an x = 0 update is bitwise [v * (1 - alpha)]: coasting k
     epochs by [(1 - alpha)^k] then agrees with k explicit zero updates
     up to rounding. *)
  type t = {
    alpha : float;
    one_minus : float;
    mutable value : float;
    mutable primed : bool;
  }

  let make ~alpha =
    if Stats.Float_cmp.leq alpha 0. || Stats.Float_cmp.gt alpha 1. then
      invalid_arg "Sketch.Estimators.Ewma.make: alpha must be in (0, 1]";
    { alpha; one_minus = 1. -. alpha; value = 0.; primed = false }

  let update t x =
    if t.primed then t.value <- (t.one_minus *. t.value) +. (t.alpha *. x)
    else begin
      t.value <- x;
      t.primed <- true
    end

  let coast t k =
    if k < 0 then invalid_arg "Sketch.Estimators.Ewma.coast: negative epochs";
    if k > 0 && t.primed then
      t.value <- t.value *. Float.pow t.one_minus (float_of_int k)

  let value t = t.value
  let primed t = t.primed
end

module Quantile = struct
  (* Gain schedule: [step0] through the 16-observation warm-up, then
     halved at every count doubling, down through [levels] steps. *)
  let levels = 16

  type t = {
    p : float;
    lo : float;
    hi : float;
    step0 : float;
    mutable q : float;
    mutable count : int;
  }

  let make ~p ~lo ~hi =
    if Stats.Float_cmp.leq p 0. || Stats.Float_cmp.geq p 1. then
      invalid_arg "Sketch.Estimators.Quantile.make: p must be in (0, 1)";
    if Stats.Float_cmp.geq lo hi then
      invalid_arg "Sketch.Estimators.Quantile.make: lo must be below hi";
    { p; lo; hi; step0 = (hi -. lo) /. 4.; q = lo; count = 0 }

  (* Gain level: the integer log2 of [count / 16], capped at the last
     level — int ops only. *)
  let level t =
    let n = t.count lsr 4 in
    let k = ref 0 in
    while n lsr !k > 0 do
      incr k
    done;
    min !k (levels - 1)

  let update t y =
    t.count <- t.count + 1;
    if t.count = 1 then t.q <- Float.max t.lo (Float.min t.hi y)
    else begin
      (* Scaling by 2^-level is exact, so this is bitwise
         [step0 / 2^level]. *)
      let step = Float.ldexp t.step0 (-level t) in
      let dir = if Stats.Float_cmp.gt y t.q then t.p else t.p -. 1. in
      t.q <- Float.max t.lo (Float.min t.hi (t.q +. (step *. dir)))
    end

  let value t = t.q
  let count t = t.count

  let elevation t = (t.q -. t.lo) /. (t.hi -. t.lo)
end
