type block = {
  start_time : float;
  probes : int;
  loss_rate : float;
  median_delay : float;
}

type report = {
  blocks : block array;
  max_tv : float;
  loss_rate_spread : float;
  stationary : bool;
}

(* The screen's block count and its two drift thresholds: the largest
   pairwise total-variation distance between block delay distributions,
   and the largest spread of block loss rates, that still count as
   stationary. *)
let blocks = 4
let tv_threshold = 0.3
let loss_spread_threshold = 0.03

let check trace =
  let n = Probe.Trace.length trace in
  if n < 2 * blocks then invalid_arg "Stationarity.check: trace too short";
  (* A common delay discretization across blocks, finer than the
     identification's (m = 10), so distribution drift is visible. *)
  let scheme = Discretize.of_trace ~m:10 ~prop_delay:Discretize.From_trace trace in
  let block_size = n / blocks in
  let parts =
    Array.init blocks (fun b ->
        let pos = b * block_size in
        let len = if b = blocks - 1 then n - pos else block_size in
        Probe.Trace.sub trace ~pos ~len)
  in
  let summaries =
    Array.map
      (fun part ->
        let ds = Probe.Trace.observed_delays part in
        let median =
          if Array.length ds = 0 then Float.nan else Stats.Summary.median ds
        in
        let pmf =
          if Array.length ds = 0 then None
          else
            Some
              (Vqd.of_pmf scheme
                 (Array.fold_left
                    (fun acc d ->
                      acc.(Discretize.symbol_of_delay scheme d) <-
                        acc.(Discretize.symbol_of_delay scheme d) +. 1.;
                      acc)
                    (Array.make 10 0.) ds))
        in
        let block =
          {
            start_time = part.Probe.Trace.records.(0).Probe.Trace.send_time;
            probes = Probe.Trace.length part;
            loss_rate = Probe.Trace.loss_rate part;
            median_delay = median;
          }
        in
        (block, pmf))
      parts
  in
  let max_tv = ref 0. in
  let some_block_empty = ref false in
  Array.iteri
    (fun i (_, pi) ->
      Array.iteri
        (fun j (_, pj) ->
          if i < j then
            match (pi, pj) with
            | Some a, Some b ->
                max_tv := Float.max !max_tv (Vqd.tv_distance a b)
            | _ -> some_block_empty := true)
        summaries)
    summaries;
  let rates = Array.map (fun (b, _) -> b.loss_rate) summaries in
  let spread =
    Array.fold_left Float.max rates.(0) rates -. Array.fold_left Float.min rates.(0) rates
  in
  {
    blocks = Array.map fst summaries;
    max_tv = !max_tv;
    loss_rate_spread = spread;
    stationary =
      (not !some_block_empty) && !max_tv <= tv_threshold && spread <= loss_spread_threshold;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s (max block TV %.3f, loss-rate spread %.3f)@,"
    (if r.stationary then "stationary" else "NOT stationary")
    r.max_tv r.loss_rate_spread;
  Array.iteri
    (fun i b ->
      Format.fprintf ppf "block %d: t=%.0fs probes=%d loss=%.2f%% median=%.1fms@," i
        b.start_time b.probes (100. *. b.loss_rate) (1000. *. b.median_delay))
    r.blocks;
  Format.fprintf ppf "@]"
