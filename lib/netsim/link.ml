type policy = Droptail | Red of Red.t

type t = {
  sim : Sim.t;
  id : int;
  src : int;
  dst : int;
  bandwidth : float;
  prop_delay : float;
  capacity : int;
  policy : policy;
  rng : Stats.Rng.t;
  waiting : Packet.t Queue.t;
  mutable queued_bytes : int;
  mutable busy : bool;
  mutable service_end : float;  (* departure time of the in-service packet *)
  mutable deliver : Packet.t -> unit;
  mutable arrivals : int;
  mutable drops : int;
  mutable departures : int;
  mutable busy_time : float;
}

let create sim ~id ~src ~dst ~bandwidth ~delay ~capacity ~policy () =
  if bandwidth <= 0. then invalid_arg "Link.create: bandwidth <= 0";
  if delay < 0. then invalid_arg "Link.create: negative delay";
  if capacity <= 0 then invalid_arg "Link.create: capacity <= 0";
  {
    sim;
    id;
    src;
    dst;
    bandwidth;
    prop_delay = delay;
    capacity;
    policy;
    rng = Stats.Rng.split (Sim.rng sim);
    waiting = Queue.create ();
    queued_bytes = 0;
    busy = false;
    service_end = 0.;
    deliver = (fun _ -> ());
    arrivals = 0;
    drops = 0;
    departures = 0;
    busy_time = 0.;
  }

let set_deliver t f = t.deliver <- f

let transmission_time t ~size = float_of_int (size * 8) /. t.bandwidth

let queue_length t = Queue.length t.waiting + if t.busy then 1 else 0

let rec start_service t pkt =
  t.busy <- true;
  let tx = transmission_time t ~size:pkt.Packet.size in
  t.busy_time <- t.busy_time +. tx;
  t.service_end <- Sim.now t.sim +. tx;
  Sim.after t.sim tx (fun () -> finish_service t pkt)

and finish_service t pkt =
  t.departures <- t.departures + 1;
  Sim.after t.sim t.prop_delay (fun () -> t.deliver pkt);
  match Queue.take_opt t.waiting with
  | Some next ->
      t.queued_bytes <- t.queued_bytes - next.Packet.size;
      start_service t next
  | None ->
      t.busy <- false;
      (match t.policy with
      | Red red -> Red.note_idle_start red ~now:(Sim.now t.sim)
      | Droptail -> ())

let accept t pkt =
  if t.busy then begin
    Queue.add pkt t.waiting;
    t.queued_bytes <- t.queued_bytes + pkt.Packet.size
  end
  else start_service t pkt

(* The drop granularity: a full TCP segment with its header. *)
let mtu = 1040

(* The buffer is "full" for an arrival of [size] bytes when it cannot
   hold one more packet of [max size mtu] bytes — packet-slot semantics
   with byte-accurate drain times (see the interface). *)
let overflow t ~size = t.queued_bytes + Stdlib.max size mtu > t.capacity

let offer t pkt =
  t.arrivals <- t.arrivals + 1;
  let drop =
    match t.policy with
    | Droptail -> overflow t ~size:pkt.Packet.size
    | Red red ->
        (* RED may early-drop, but a physically full buffer always
           drops. *)
        overflow t ~size:pkt.Packet.size
        || Red.decide red ~rng:t.rng ~qlen:(queue_length t) ~now:(Sim.now t.sim)
  in
  if drop then t.drops <- t.drops + 1 else accept t pkt

let id t = t.id
let src t = t.src
let dst t = t.dst
let bandwidth t = t.bandwidth
let prop_delay t = t.prop_delay
let policy t = t.policy

let unfinished_work t =
  let residual = if t.busy then Float.max 0. (t.service_end -. Sim.now t.sim) else 0. in
  (float_of_int (t.queued_bytes * 8) /. t.bandwidth) +. residual

let max_queuing_delay t = float_of_int (t.capacity * 8) /. t.bandwidth

let would_drop t ~size =
  match t.policy with
  | Droptail -> if overflow t ~size then 1. else 0.
  | Red red ->
      if overflow t ~size then 1.
      else Red.drop_probability red ~qlen:(queue_length t) ~now:(Sim.now t.sim)

let arrivals t = t.arrivals
let drops t = t.drops
let departures t = t.departures
let busy_time t = t.busy_time
let loss_rate t = if t.arrivals = 0 then 0. else float_of_int t.drops /. float_of_int t.arrivals
