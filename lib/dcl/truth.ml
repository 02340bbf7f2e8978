type regime = Strong | Weak of { hop : int; loss_share : float } | No_dominant

let loss_shares trace ~hop_count =
  let shares = Array.make hop_count 0. in
  let total = ref 0 in
  Array.iter
    (fun r ->
      match r.Probe.Trace.truth with
      | Some { Probe.Trace.loss_hop = Some h; _ } ->
          incr total;
          shares.(h) <- shares.(h) +. 1.
      | Some { Probe.Trace.loss_hop = None; _ } | None -> ())
    trace.Probe.Trace.records;
  if !total > 0 then
    Array.iteri (fun i s -> shares.(i) <- s /. float_of_int !total) shares;
  shares

let dominant_hop trace ~hop_count =
  let shares = loss_shares trace ~hop_count in
  let best = ref (-1) and best_share = ref 0. in
  Array.iteri
    (fun i s ->
      if s > !best_share then begin
        best := i;
        best_share := s
      end)
    shares;
  if !best < 0 then None else Some (!best, !best_share)

let delay_condition_fraction trace ~hop =
  let total = ref 0 and ok = ref 0 in
  Array.iter
    (fun r ->
      match r.Probe.Trace.truth with
      | Some { Probe.Trace.loss_hop = Some h; hop_queuing; _ } when h = hop ->
          incr total;
          let here = hop_queuing.(hop) in
          let others = Array.fold_left ( +. ) 0. hop_queuing -. here in
          if here >= others -. 1e-12 then incr ok
      | Some _ | None -> ())
    trace.Probe.Trace.records;
  if !total = 0 then 1. else float_of_int !ok /. float_of_int !total

(* Loss share and delay-condition fraction that make a hop strongly
   dominant (all losses, within a tolerance for rounding), and the loss
   share that makes it weakly dominant: 1 - beta at the paper's
   beta = 0.06. *)
let strong_share = 0.995
let delay_fraction = 0.995
let weak_share = 0.94

let classify trace ~hop_count =
  match dominant_hop trace ~hop_count with
  | None -> No_dominant
  | Some (hop, share) ->
      if share >= strong_share && delay_condition_fraction trace ~hop >= delay_fraction
      then Strong
      else if share >= weak_share then Weak { hop; loss_share = share }
      else No_dominant

let pp_regime ppf = function
  | Strong -> Format.fprintf ppf "strongly dominant"
  | Weak { hop; loss_share } ->
      Format.fprintf ppf "weakly dominant (hop %d, %.1f%% of losses)" hop
        (100. *. loss_share)
  | No_dominant -> Format.fprintf ppf "no dominant congested link"
