open Netsim

type t = {
  net : Net.t;
  size : int;
  interval : float;
  path : Link.t list;
  base_delay : float;
  rng : Stats.Rng.t;
  mutable results : (int * Shadow.result) list;  (* (probe index, result), newest first *)
  mutable launched : int;
}

let create ?(size = 10) net ~src ~dst ~interval () =
  if interval <= 0. then invalid_arg "Prober.create: interval <= 0";
  let path = Net.path_links net ~src ~dst in
  {
    net;
    size;
    interval;
    path;
    base_delay = Shadow.base_delay ~size path;
    rng = Stats.Rng.split (Sim.rng (Net.sim net));
    results = [];
    launched = 0;
  }

let start t ~at ~until =
  if until <= at then invalid_arg "Prober.start: empty probing window";
  Sim.every (Net.sim t.net) ~at ~period:t.interval ~until (fun _ ->
      let idx = t.launched in
      t.launched <- t.launched + 1;
      Shadow.launch t.net ~path:t.path ~size:t.size ~rng:t.rng ~k:(fun r ->
          t.results <- (idx, r) :: t.results))

let record_of_result (r : Shadow.result) =
  let vqd = Shadow.total_queuing r in
  let truth =
    Some
      Trace.
        { virtual_queuing_delay = vqd; hop_queuing = r.hop_queuing; loss_hop = r.loss_hop }
  in
  let obs =
    match r.loss_hop with
    | Some _ -> Trace.Lost
    | None -> Trace.Delay (Shadow.end_to_end_delay r)
  in
  Trace.{ send_time = r.sent_at; obs; truth }

let trace t =
  let completed = List.sort (fun (a, _) (b, _) -> compare a b) (List.rev t.results) in
  let records = Array.of_list (List.map (fun (_, r) -> record_of_result r) completed) in
  Trace.create ~records ~interval:t.interval ~base_delay:t.base_delay
    ~hop_count:(List.length t.path)
