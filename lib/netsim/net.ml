type queue_spec = Droptail_q | Red_q of { min_th : float; max_th : float }

type t = {
  sim : Sim.t;
  mutable names : string array;
  mutable n_nodes : int;
  mutable links_rev : Link.t list;
  mutable n_links : int;
  (* adjacency: per node, outgoing links *)
  mutable out_links : Link.t list array;
  (* next_hop.(node).(dst) = outgoing link, or None *)
  mutable next_hop : Link.t option array array;
  mutable routes_fresh : bool;
  handlers : (int * int, Packet.t -> unit) Hashtbl.t;
  default_handlers : (int, Packet.t -> unit) Hashtbl.t;
}

let create sim =
  {
    sim;
    names = [||];
    n_nodes = 0;
    links_rev = [];
    n_links = 0;
    out_links = [||];
    next_hop = [||];
    routes_fresh = false;
    handlers = Hashtbl.create 64;
    default_handlers = Hashtbl.create 16;
  }

let sim t = t.sim

let add_node t name =
  let id = t.n_nodes in
  let cap = Array.length t.names in
  if id = cap then begin
    let ncap = Stdlib.max 8 (2 * cap) in
    let names = Array.make ncap "" in
    Array.blit t.names 0 names 0 cap;
    t.names <- names;
    let out = Array.make ncap [] in
    Array.blit t.out_links 0 out 0 cap;
    t.out_links <- out
  end;
  t.names.(id) <- name;
  t.n_nodes <- id + 1;
  t.routes_fresh <- false;
  id

let node_count t = t.n_nodes

let node_name t id =
  if id < 0 || id >= t.n_nodes then invalid_arg "Net.node_name: bad node id";
  t.names.(id)

let check_node t id label =
  if id < 0 || id >= t.n_nodes then invalid_arg ("Net.add_link: bad " ^ label ^ " node id")

(* Forward declaration cycle: links deliver to the net's forwarding
   function, which offers to links. *)
let rec deliver t (pkt : Packet.t) node =
  if pkt.Packet.dst = node then begin
    match Hashtbl.find_opt t.handlers (node, pkt.Packet.flow) with
    | Some h -> h pkt
    | None -> (
        match Hashtbl.find_opt t.default_handlers node with
        | Some h -> h pkt
        | None -> ())
  end
  else forward t pkt node

and forward t pkt node =
  if not t.routes_fresh then failwith "Net: routes are stale; call compute_routes";
  (* Routers (not the originating host) decrement the TTL; on expiry
     the packet is discarded and a small time-exceeded reply carrying
     the packet's flow and sequence number returns to the source —
     enough for traceroute/pathchar-style per-hop measurement. *)
  let pkt =
    if node = pkt.Packet.src then pkt else { pkt with Packet.ttl = pkt.Packet.ttl - 1 }
  in
  if pkt.Packet.ttl <= 0 then begin
    if node <> pkt.Packet.src then
      let reply =
        Packet.make ~id:(Sim.fresh_packet_id t.sim) ~flow:pkt.Packet.flow ~src:node
          ~dst:pkt.Packet.src ~size:56 ~kind:Packet.Icmp_ttl_exceeded ~seq:pkt.Packet.seq
          ~sent_at:(Sim.now t.sim) ()
      in
      deliver t reply node
  end
  else
    match t.next_hop.(node).(pkt.Packet.dst) with
    | Some link -> Link.offer link pkt
    | None ->
        failwith
          (Printf.sprintf "Net: no route from %s to %s" t.names.(node)
             t.names.(pkt.Packet.dst))

let add_link t ~src ~dst ~bandwidth ~delay ~capacity ?(queue = Droptail_q) () =
  check_node t src "src";
  check_node t dst "dst";
  let policy =
    match queue with
    | Droptail_q -> Link.Droptail
    | Red_q { min_th; max_th } ->
        let mean_pkt_time = 1000. *. 8. /. bandwidth in
        Link.Red (Red.create ~min_th ~max_th ~mean_pkt_time ())
  in
  let id = t.n_links in
  let link = Link.create t.sim ~id ~src ~dst ~bandwidth ~delay ~capacity ~policy () in
  Link.set_deliver link (fun pkt -> deliver t pkt dst);
  t.links_rev <- link :: t.links_rev;
  t.n_links <- id + 1;
  t.out_links.(src) <- link :: t.out_links.(src);
  t.routes_fresh <- false;
  link

let add_duplex t ~a ~b ~bandwidth ~delay ~capacity ?queue () =
  let ab = add_link t ~src:a ~dst:b ~bandwidth ~delay ~capacity ?queue () in
  let ba = add_link t ~src:b ~dst:a ~bandwidth ~delay ~capacity ?queue () in
  (ab, ba)

let compute_routes t =
  let n = t.n_nodes in
  t.next_hop <- Array.init n (fun _ -> Array.make n None);
  (* BFS from every source over outgoing links; first-hop recorded per
     destination.  O(V * (V + E)), fine for experiment-scale nets. *)
  for s = 0 to n - 1 do
    let dist = Array.make n max_int in
    let first : Link.t option array = Array.make n None in
    dist.(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let u = Queue.take q in
      List.iter
        (fun link ->
          let v = Link.dst link in
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            first.(v) <- (if u = s then Some link else first.(u));
            Queue.add v q
          end)
        t.out_links.(u)
    done;
    for d = 0 to n - 1 do
      if d <> s then t.next_hop.(s).(d) <- first.(d)
    done
  done;
  t.routes_fresh <- true

let path_links t ~src ~dst =
  if not t.routes_fresh then failwith "Net.path_links: routes are stale";
  let rec walk node acc =
    if node = dst then List.rev acc
    else
      match t.next_hop.(node).(dst) with
      | None -> raise Not_found
      | Some link -> walk (Link.dst link) (link :: acc)
  in
  walk src []

let set_handler t ~node ~flow h = Hashtbl.replace t.handlers (node, flow) h
let set_default_handler t ~node h = Hashtbl.replace t.default_handlers node h
let inject t pkt = deliver t pkt pkt.Packet.src
