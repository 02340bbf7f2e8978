open Netsim

type t = {
  net : Net.t;
  size : int;
  gap : float;
  pair_interval : float;
  path : Link.t list;
  rng : Stats.Rng.t;
  mutable pairs_sent : int;
  mutable loss_pairs : int;
  mutable both_lost : int;
  mutable samples : (int * float) list;  (* (pair index, sample), newest first *)
}

let default_gap ~size path =
  let slowest =
    List.fold_left (fun acc l -> Float.min acc (Link.bandwidth l)) infinity path
  in
  float_of_int (size * 8) /. slowest

let create ?(size = 10) ?gap net ~src ~dst ~pair_interval () =
  if pair_interval <= 0. then invalid_arg "Losspair.create: pair_interval <= 0";
  let path = Net.path_links net ~src ~dst in
  let gap = match gap with Some g -> g | None -> default_gap ~size path in
  {
    net;
    size;
    gap;
    pair_interval;
    path;
    rng = Stats.Rng.split (Sim.rng (Net.sim net));
    pairs_sent = 0;
    loss_pairs = 0;
    both_lost = 0;
    samples = [];
  }

let record t idx (first : Shadow.result) (second : Shadow.result) =
  let outcome r = r.Shadow.loss_hop <> None in
  match (outcome first, outcome second) with
  | true, true -> t.both_lost <- t.both_lost + 1
  | false, false -> ()
  | lost1, _ ->
      t.loss_pairs <- t.loss_pairs + 1;
      let survivor = if lost1 then second else first in
      t.samples <- (idx, Shadow.total_queuing survivor) :: t.samples

let start t ~at ~until =
  if until <= at then invalid_arg "Losspair.start: empty probing window";
  let sim = Net.sim t.net in
  Sim.every sim ~at ~period:t.pair_interval ~until (fun _ ->
      let idx = t.pairs_sent in
      t.pairs_sent <- t.pairs_sent + 1;
      (* Both results are needed before classifying; the second probe
         always completes later in virtual time, but callbacks can
         interleave across pairs, so pair them explicitly. *)
      let slot = ref None in
      let on_result r =
        match !slot with
        | None -> slot := Some r
        | Some first -> record t idx first r
      in
      let launch () = Shadow.launch t.net ~path:t.path ~size:t.size ~rng:t.rng ~k:on_result in
      Sim.at sim (Sim.now sim +. t.gap) launch;
      launch ())

let pairs_sent t = t.pairs_sent
let loss_pairs t = t.loss_pairs
let both_lost t = t.both_lost

let samples t =
  let ordered = List.sort (fun (a, _) (b, _) -> compare a b) t.samples in
  Array.of_list (List.map snd ordered)

let estimate_max_queuing_delay ?(bins = 40) t =
  let xs = samples t in
  if Array.length xs = 0 then None
  else begin
    let lo = 0. in
    let hi = Array.fold_left Float.max xs.(0) xs +. 1e-9 in
    let h = Stats.Histogram.create ~m:bins ~lo ~hi in
    Array.iter (Stats.Histogram.add h) xs;
    Some (Stats.Histogram.mode_value h)
  end
