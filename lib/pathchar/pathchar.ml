open Netsim

type hop = {
  index : int;
  replies : int;
  slope : float option;
  capacity : float option;
  latency : float option;
}

type result = { hops : hop array; narrow_hop : int option }

let fit_min_line points =
  match points with
  | [] | [ _ ] -> None
  | _ ->
      let n = float_of_int (List.length points) in
      let sx = List.fold_left (fun a (s, _) -> a +. float_of_int s) 0. points in
      let sy = List.fold_left (fun a (_, r) -> a +. r) 0. points in
      let sxx = List.fold_left (fun a (s, _) -> a +. (float_of_int s *. float_of_int s)) 0. points in
      let sxy = List.fold_left (fun a (s, r) -> a +. (float_of_int s *. r)) 0. points in
      let denom = (n *. sxx) -. (sx *. sx) in
      if Stats.Float_cmp.is_zero ~eps:1e-9 denom then None
      else
        let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
        let intercept = (sy -. (slope *. sx)) /. n in
        Some (slope, intercept)

(* Probe sizes in bytes, and the spacing between probes in seconds. *)
let sizes = [| 200; 500; 800; 1100; 1400 |]
let interval = 0.03

(* State for one measurement campaign: per (hop, size), the minimum
   observed RTT. *)
type campaign = {
  net : Net.t;
  flow : int;
  src : int;
  dst : int;
  probes_per_size : int;
  hops : int;
  (* send time per outstanding probe, indexed by seq *)
  sent : (int, float) Hashtbl.t;
  (* (hop, size) -> min rtt *)
  min_rtt : (int * int, float) Hashtbl.t;
  replies : int array;  (* per hop, 0-based *)
}

(* Probe seq encodes (hop, size index, repetition) so the reply can be
   matched without extra state. *)
let seq_of c ~hop ~size_idx ~rep =
  (((hop * Array.length sizes) + size_idx) * c.probes_per_size) + rep

let decode c seq =
  let rep = seq mod c.probes_per_size in
  let rest = seq / c.probes_per_size in
  let size_idx = rest mod Array.length sizes in
  let hop = rest / Array.length sizes in
  (hop, size_idx, rep)

let on_reply c (pkt : Packet.t) =
  match Hashtbl.find_opt c.sent pkt.Packet.seq with
  | None -> ()
  | Some sent_at ->
      Hashtbl.remove c.sent pkt.Packet.seq;
      let now = Sim.now (Net.sim c.net) in
      let rtt = now -. sent_at in
      let hop, size_idx, _ = decode c pkt.Packet.seq in
      c.replies.(hop - 1) <- c.replies.(hop - 1) + 1;
      let key = (hop, sizes.(size_idx)) in
      (match Hashtbl.find_opt c.min_rtt key with
      | Some best when best <= rtt -> ()
      | Some _ | None -> Hashtbl.replace c.min_rtt key rtt)

let estimate c =
  (* Per-hop line fits on the per-size minima.  [min_rtt] is only ever
     read by keyed [find_opt] in the fixed (hop, size) order below —
     never iterated — so Hashtbl iteration order (R8) cannot reach the
     estimates. *)
  let fits =
    Array.init c.hops (fun i ->
        let hop = i + 1 in
        let points =
          Array.to_list sizes
          |> List.filter_map (fun size ->
                 Option.map (fun r -> (size, r)) (Hashtbl.find_opt c.min_rtt (hop, size)))
        in
        fit_min_line points)
  in
  let hops =
    Array.init c.hops (fun i ->
        let hop = i + 1 in
        let this = fits.(i) in
        let prev = if i = 0 then Some (0., 0.) else fits.(i - 1) in
        let capacity, latency =
          match (prev, this) with
          | Some (s0, i0), Some (s1, i1) when s1 > s0 +. 1e-12 ->
              ( Some (8. /. (s1 -. s0)),
                (* RTT intercepts include the (size-independent) return
                   path; the forward fixed-delay difference is a good
                   estimate when return queuing is filtered by the
                   minima. *)
                Some (Float.max 0. (i1 -. i0) /. 2.) )
          | _ -> (None, None)
        in
        {
          index = hop;
          replies = c.replies.(i);
          slope = (match this with Some (s, _) -> Some s | None -> None);
          capacity;
          latency;
        })
  in
  let narrow_hop =
    Array.fold_left
      (fun best h ->
        match (h.capacity, best) with
        | Some cap, Some (_, best_cap) when cap < best_cap -> Some (h.index, cap)
        | Some cap, None -> Some (h.index, cap)
        | _ -> best)
      None hops
    |> Option.map fst
  in
  { hops; narrow_hop }

let run ?(probes_per_size = 16) net ~src ~hops ~dst ~k =
  if hops <= 0 then invalid_arg "Pathchar.run: hops <= 0";
  if probes_per_size <= 0 then invalid_arg "Pathchar.run: probes_per_size <= 0";
  let sim = Net.sim net in
  let c =
    {
      net;
      flow = Sim.fresh_flow_id sim;
      src;
      dst;
      probes_per_size;
      hops;
      sent = Hashtbl.create 256;
      min_rtt = Hashtbl.create 64;
      replies = Array.make hops 0;
    }
  in
  Net.set_handler net ~node:src ~flow:c.flow (fun pkt ->
      match pkt.Packet.kind with
      | Packet.Icmp_ttl_exceeded -> on_reply c pkt
      | Packet.Udp | Packet.Tcp_data | Packet.Tcp_ack -> ());
  (* Probes whose TTL outlives the path reach the destination, which
     answers like a real host would (port unreachable); reusing the
     time-exceeded kind keeps the reply path uniform. *)
  Net.set_handler net ~node:dst ~flow:c.flow (fun pkt ->
      match pkt.Packet.kind with
      | Packet.Udp ->
          Net.inject net
            (Packet.make ~id:(Sim.fresh_packet_id sim) ~flow:c.flow ~src:dst
               ~dst:pkt.Packet.src ~size:56 ~kind:Packet.Icmp_ttl_exceeded
               ~seq:pkt.Packet.seq ~sent_at:(Sim.now sim) ())
      | Packet.Icmp_ttl_exceeded | Packet.Tcp_data | Packet.Tcp_ack -> ());
  (* Probe [i] goes out at [start + i * interval], hop-major, then by
     size, then by repetition: exactly the order of [seq_of], offset by
     the hop-0 block that [seq_of] skips. *)
  let total = hops * Array.length sizes * probes_per_size in
  let start = Sim.now sim in
  let until = start +. (float_of_int total *. interval) in
  let seq0 = seq_of c ~hop:1 ~size_idx:0 ~rep:0 in
  Sim.every sim ~at:start ~period:interval ~until (fun i ->
      let seq = seq0 + i in
      let hop, size_idx, _ = decode c seq in
      Hashtbl.replace c.sent seq (Sim.now sim);
      Net.inject net
        (Packet.make ~id:(Sim.fresh_packet_id sim) ~flow:c.flow ~src:c.src ~dst:c.dst
           ~size:sizes.(size_idx) ~kind:Packet.Udp ~seq ~sent_at:(Sim.now sim) ~ttl:hop ()));
  (* Collect after the last probe plus generous slack for replies. *)
  Sim.at sim (until +. 5.) (fun () -> k (estimate c))
