(* The EWMA gain of the average queue, the max_p adaptation period in
   seconds, and max_p's starting value. *)
let weight = 0.002
let interval = 0.5
let initial_max_p = 0.1

type t = {
  min_th : float;
  max_th : float;
  mean_pkt_time : float;
  mutable max_p : float;
  mutable avg : float;
  mutable count : int;  (* packets since last drop while in the ramp *)
  mutable idle_since : float option;
  mutable next_adapt : float;
}

let create ~min_th ~max_th ~mean_pkt_time () =
  if min_th <= 0. || max_th <= min_th then invalid_arg "Red.create: need 0 < min_th < max_th";
  {
    min_th;
    max_th;
    mean_pkt_time;
    max_p = initial_max_p;
    avg = 0.;
    count = -1;
    idle_since = None;
    next_adapt = interval;
  }

let note_idle_start t ~now = t.idle_since <- Some now

(* AIMD adaptation of max_p (Adaptive RED): keep avg inside the middle
   fifth of [min_th, max_th]. *)
let adapt t ~now =
  if now >= t.next_adapt then begin
    let range = t.max_th -. t.min_th in
    let target_lo = t.min_th +. (0.4 *. range) and target_hi = t.min_th +. (0.6 *. range) in
    if t.avg > target_hi && t.max_p <= 0.5 then
      t.max_p <- Float.min 0.5 (t.max_p +. Float.min 0.01 (t.max_p /. 4.))
    else if t.avg < target_lo && t.max_p >= 0.01 then t.max_p <- Float.max 0.01 (t.max_p *. 0.9);
    t.next_adapt <- now +. interval
  end

let update_avg t ~qlen ~now =
  (match t.idle_since with
  | Some since when qlen = 0 ->
      (* Age the average as if (idle / mean_pkt_time) empty samples had
         been observed. *)
      let m = (now -. since) /. t.mean_pkt_time in
      t.avg <- t.avg *. ((1. -. weight) ** Float.max 0. m);
      t.idle_since <- None
  | Some _ -> t.idle_since <- None
  | None -> ());
  t.avg <- t.avg +. (weight *. (float_of_int qlen -. t.avg))

let base_probability t =
  if t.avg < t.min_th then 0.
  else if t.avg < t.max_th then t.max_p *. (t.avg -. t.min_th) /. (t.max_th -. t.min_th)
  else if t.avg < 2. *. t.max_th then
    (* Gentle mode ramp from max_p to 1. *)
    t.max_p +. ((1. -. t.max_p) *. (t.avg -. t.max_th) /. t.max_th)
  else 1.

let decide t ~rng ~qlen ~now =
  update_avg t ~qlen ~now;
  adapt t ~now;
  if t.avg < t.min_th then begin
    t.count <- -1;
    false
  end
  else begin
    t.count <- t.count + 1;
    let pb = base_probability t in
    if pb >= 1. then begin
      t.count <- 0;
      true
    end
    else
      (* Uniformize inter-drop spacing (Floyd/Jacobson 1993). *)
      let denom = 1. -. (float_of_int t.count *. pb) in
      let pa = if denom <= 0. then 1. else Float.min 1. (pb /. denom) in
      if Stats.Rng.float rng < pa then begin
        t.count <- 0;
        true
      end
      else false
  end

let drop_probability t ~qlen ~now =
  ignore qlen;
  ignore now;
  base_probability t

let avg t = t.avg
let max_p t = t.max_p
