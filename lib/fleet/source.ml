(* Observation sources for fleet drivers: where each path's per-epoch
   batches come from.

   Two backends: [synthetic] shares a few ground-truth Markov templates
   across all paths (per-path state is just a template index, a chain
   state and an RNG — 10^5 paths do not hold 10^5 models), and
   [of_trace] replays a recorded probe trace with per-path phase
   offsets.  Generation always runs on the driver's domain, outside
   the pooled tick, so sources need no concurrency story. *)

type t = {
  paths : int;
  scheme : Dcl.Discretize.t;
  pull : int -> int -> Em.observation array;
  truth : (int -> bool) option;
}

let scheme t = t.scheme

let pull t ~path ~len =
  if path < 0 || path >= t.paths then
    invalid_arg "Fleet.Source.pull: path index out of range";
  if len <= 0 then invalid_arg "Fleet.Source.pull: len must be positive";
  t.pull path len

let ground_truth t p =
  match t.truth with None -> None | Some f -> Some (f p)

(* --- synthetic ----------------------------------------------------- *)

(* A template is a plain Markov chain over the m delay symbols (the
   n = 1 MMHD) with a per-symbol loss probability.  [dominant]
   templates concentrate both delay mass and losses at the top
   symbols — the VQD of a strongly dominant congested link; balanced
   templates split losses between a low- and a high-delay mode, the
   no-DCL shape. *)
type template = {
  t_pi : float array; (* m *)
  t_a : float array; (* m*m row-major *)
  t_c : float array; (* m *)
  dominant : bool;
}

let normalize_into a =
  let sum = Array.fold_left ( +. ) 0. a in
  let inv = 1. /. sum in
  for i = 0 to Array.length a - 1 do
    a.(i) <- a.(i) *. inv
  done

let make_template rng ~m ~dominant =
  let top = float_of_int (m - 1) in
  let weight j =
    if dominant then ((0.5 +. float_of_int j) /. top) ** 2.
    else if j = 0 then 5.
    else 1.
  in
  let c =
    if dominant then
      Array.init m (fun j -> 0.002 +. (0.25 *. ((float_of_int j /. top) ** 4.)))
    else begin
      (* Two congested links, neither dominant: the low-delay link
         causes ~65% of losses (so the median loss symbol d-star stays
         in the bottom of the range), the high-delay link 20% (so F at
         twice d-star tops out well below the ~0.94 test thresholds), and
         the rest dribbles across the middle.  c_j = K * target_j /
         weight_j turns the loss-mass targets into per-symbol loss
         probabilities; K sets the overall loss rate to ~6%. *)
      let k = 0.06 *. float_of_int (m + 4) in
      Array.init m (fun j ->
          let target =
            if j = 0 then 0.65
            else if j = m - 1 then 0.20
            else 0.15 /. float_of_int (m - 2)
          in
          k *. target /. weight j)
    end
  in
  let pi = Array.init m weight in
  normalize_into pi;
  let a = Array.make (m * m) 0. in
  for y = 0 to m - 1 do
    let off = y * m in
    for y' = 0 to m - 1 do
      (* Mild multiplicative jitter decorrelates templates of the same
         kind without disturbing the mode structure; the diagonal boost
         makes congestion episodes persistent, which is both physically
         plausible and what lets the model attribute a lost probe's
         unobserved delay symbol from its neighbours. *)
      let sticky = if y' = y then 3. else 1. in
      a.(off + y') <- weight y' *. sticky *. (0.8 +. (0.4 *. Stats.Rng.float rng))
    done;
    let sum = ref 0. in
    for y' = 0 to m - 1 do
      sum := !sum +. a.(off + y')
    done;
    let inv = 1. /. !sum in
    for y' = 0 to m - 1 do
      a.(off + y') <- a.(off + y') *. inv
    done
  done;
  { t_pi = pi; t_a = a; t_c = c; dominant }

(* Categorical draw over a row of a flat matrix, cumulative scan (the
   Stats.Sampler idiom without a per-step row copy). *)
let draw_row rng row ~off ~len =
  let u = Stats.Rng.float rng in
  let acc = ref 0. and k = ref 0 in
  (try
     for j = 0 to len - 1 do
       acc := !acc +. row.(off + j);
       if u < !acc then begin
         k := j;
         raise Exit
       end
     done;
     k := len - 1
   with Exit -> ());
  !k

(* How many of [templates] generators are congested: the nearest
   integer to the requested fraction, computed once.  The old per-index
   predicate [float_of_int i +. 0.5 < fraction *. float_of_int n]
   re-ran a raw float comparison against a computed product for every
   template and could misround at representable boundaries (the shape
   lint R3 bans elsewhere); the count is the single boundary decision,
   so it goes through the sanctioned rounding home. *)
let congested_templates ~templates ~fraction =
  Stats.Float_cmp.round_to_int (fraction *. float_of_int templates)

let synthetic ?(templates = 8) ?(congested_fraction = 0.3) ?(m = 5) ~rng ~paths
    () =
  if paths <= 0 then invalid_arg "Fleet.Source.synthetic: paths must be positive";
  if templates <= 0 then
    invalid_arg "Fleet.Source.synthetic: templates must be positive";
  if m < 3 then invalid_arg "Fleet.Source.synthetic: m must be at least 3";
  if Stats.Float_cmp.lt congested_fraction 0.
     || Stats.Float_cmp.gt congested_fraction 1. then
    invalid_arg "Fleet.Source.synthetic: congested_fraction outside [0, 1]";
  (* 10 ms symbol bins over a 20 ms propagation delay: arbitrary but
     physically plausible; the symbols are what matter. *)
  let scheme =
    Dcl.Discretize.of_range ~m ~lo:0.02 ~hi:(0.02 +. (0.01 *. float_of_int m))
  in
  let congested = congested_templates ~templates ~fraction:congested_fraction in
  let tpls =
    Array.init templates (fun i -> make_template rng ~m ~dominant:(i < congested))
  in
  let assign = Array.make paths 0 in
  let states = Array.make paths 0 in
  let rngs = Array.make paths rng in
  for p = 0 to paths - 1 do
    assign.(p) <- Stats.Rng.int rng templates;
    rngs.(p) <- Stats.Rng.split rng;
    states.(p) <- draw_row rngs.(p) tpls.(assign.(p)).t_pi ~off:0 ~len:m
  done;
  let pull p len =
    let tpl = tpls.(assign.(p)) in
    let prng = rngs.(p) in
    let batch = Array.make len 0 in
    let state = ref states.(p) in
    for i = 0 to len - 1 do
      let y = !state in
      batch.(i) <- (if Stats.Sampler.bernoulli prng ~p:tpl.t_c.(y) then m else y);
      state := draw_row prng tpl.t_a ~off:(y * m) ~len:m
    done;
    states.(p) <- !state;
    batch
  in
  {
    paths;
    scheme;
    pull;
    truth = Some (fun p -> tpls.(assign.(p)).dominant);
  }

(* --- trace replay -------------------------------------------------- *)

let of_trace ?(m = 5) ~paths trace =
  if paths <= 0 then invalid_arg "Fleet.Source.of_trace: paths must be positive";
  if m < 3 then invalid_arg "Fleet.Source.of_trace: m must be at least 3";
  let scheme =
    Dcl.Discretize.of_trace ~m ~prop_delay:Dcl.Discretize.From_trace trace
  in
  let symbols = Dcl.Discretize.symbolize scheme trace in
  let tt = Array.length symbols in
  (* Fibonacci-hash phase offsets decorrelate the replicas: neighbours
     start far apart in the trace. *)
  let cursors = Array.make paths 0 in
  for p = 0 to paths - 1 do
    cursors.(p) <- p * 2654435761 mod tt
  done;
  let pull p len =
    let batch = Array.make len 0 in
    let cur = cursors.(p) in
    for i = 0 to len - 1 do
      batch.(i) <- symbols.((cur + i) mod tt)
    done;
    cursors.(p) <- (cur + len) mod tt;
    batch
  in
  { paths; scheme; pull; truth = None }
