open Netsim

type result = {
  sent_at : float;
  hop_queuing : float array;
  loss_hop : int option;
  base_delay : float;
}

let base_delay ~size path =
  List.fold_left
    (fun acc link -> acc +. Link.prop_delay link +. Link.transmission_time link ~size)
    0. path

let total_queuing r = Array.fold_left ( +. ) 0. r.hop_queuing
let end_to_end_delay r = r.base_delay +. total_queuing r

let launch net ~path ~size ~rng ~k =
  let sim = Net.sim net in
  let sent_at = Sim.now sim in
  let links = Array.of_list path in
  let n = Array.length links in
  if n = 0 then invalid_arg "Shadow.launch: empty path";
  let hop_queuing = Array.make n 0. in
  let loss_hop = ref None in
  let base = base_delay ~size path in
  let rec arrive hop =
    if hop = n then
      k { sent_at; hop_queuing = Array.copy hop_queuing; loss_hop = !loss_hop; base_delay = base }
    else begin
      let link = links.(hop) in
      let backlog = Link.unfinished_work link in
      let qdelay =
        if !loss_hop = None then begin
          let p = Link.would_drop link ~size in
          let dropped = p >= 1. || (p > 0. && Stats.Rng.float rng < p) in
          if dropped then begin
            loss_hop := Some hop;
            (* A droptail drop means a full buffer: the virtual probe
               records the drain time of that full buffer, Q_k.  A RED
               early drop happens below capacity; the queue the probe
               "sees" is the live backlog. *)
            match Link.policy link with
            | Link.Droptail -> Link.max_queuing_delay link
            | Link.Red _ -> backlog
          end
          else backlog
        end
        else backlog
      in
      hop_queuing.(hop) <- qdelay;
      let hop_time = qdelay +. Link.transmission_time link ~size +. Link.prop_delay link in
      Sim.after sim hop_time (fun () -> arrive (hop + 1))
    end
  in
  arrive 0
