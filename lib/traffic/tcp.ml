open Netsim

(* Segment sizes (payload, data header and pure-ACK bytes), the
   initial window and slow-start threshold in segments, and the RTO
   clamp in seconds. *)
let mss = 1000
let header = 40
let ack_size = 40
let initial_cwnd = 2.
let initial_ssthresh = 64.
let min_rto = 0.2
let max_rto = 60.

type mode = Normal | Recovery of { recover : int }

type receiver = {
  mutable next_expected : int;
  buffered : (int, unit) Hashtbl.t;
  mutable delivered : int;
}

type t = {
  net : Net.t;
  flow : int;
  src : int;
  dst : int;
  recv : receiver;
  (* --- sender state --- *)
  mutable started : bool;
  mutable next_to_send : int;  (* next segment try_send will emit *)
  mutable max_sent : int;  (* one past the highest segment ever sent *)
  mutable highest_acked : int;  (* cumulative: all segments < this are acked *)
  mutable backlog : int option;  (* total segments supplied; None = unlimited *)
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable mode : mode;
  mutable dupacks : int;
  (* RTT estimation (Karn: one timed segment at a time, never a
     retransmission) *)
  mutable srtt : float option;
  mutable rttvar : float;
  mutable rto : float;
  mutable timed_seq : int option;
  mutable timed_at : float;
  mutable retx_floor : int;  (* segments below this were retransmitted *)
  mutable timer_gen : int;
  mutable completed : bool;
  mutable complete_cb : unit -> unit;
  (* counters *)
  mutable segments_sent : int;
  mutable retransmissions : int;
  mutable timeouts : int;
}

let flow t = t.flow
let sim t = Net.sim t.net

let backlog_limit t = match t.backlog with None -> max_int | Some n -> n

let flight_size t = t.next_to_send - t.highest_acked

(* --- receiver ------------------------------------------------------- *)

let send_ack t =
  let s = sim t in
  let pkt =
    Packet.make ~id:(Sim.fresh_packet_id s) ~flow:t.flow ~src:t.dst ~dst:t.src
      ~size:ack_size ~kind:Packet.Tcp_ack ~seq:t.recv.next_expected
      ~sent_at:(Sim.now s) ()
  in
  Net.inject t.net pkt

let handle_data t (pkt : Packet.t) =
  let r = t.recv in
  let seq = pkt.Packet.seq in
  if seq = r.next_expected then begin
    r.next_expected <- r.next_expected + 1;
    r.delivered <- r.delivered + 1;
    (* Drain any contiguous buffered segments. *)
    let continue = ref true in
    while !continue do
      if Hashtbl.mem r.buffered r.next_expected then begin
        Hashtbl.remove r.buffered r.next_expected;
        r.next_expected <- r.next_expected + 1;
        r.delivered <- r.delivered + 1
      end
      else continue := false
    done
  end
  else if seq > r.next_expected then Hashtbl.replace r.buffered seq ();
  send_ack t

(* --- sender --------------------------------------------------------- *)

let update_rto t sample =
  let alpha = 1. /. 8. and beta = 1. /. 4. in
  (match t.srtt with
  | None ->
      t.srtt <- Some sample;
      t.rttvar <- sample /. 2.
  | Some srtt ->
      t.rttvar <- ((1. -. beta) *. t.rttvar) +. (beta *. abs_float (srtt -. sample));
      t.srtt <- Some (((1. -. alpha) *. srtt) +. (alpha *. sample)));
  let srtt = Option.get t.srtt in
  t.rto <- Float.min max_rto (Float.max min_rto (srtt +. (4. *. t.rttvar)))

let stop_timer t = t.timer_gen <- t.timer_gen + 1

let rec restart_timer t =
  t.timer_gen <- t.timer_gen + 1;
  let gen = t.timer_gen in
  Sim.after (sim t) t.rto (fun () -> if gen = t.timer_gen && not t.completed then on_timeout t)

and transmit t seq ~retransmission =
  let s = sim t in
  let pkt =
    Packet.make ~id:(Sim.fresh_packet_id s) ~flow:t.flow ~src:t.src ~dst:t.dst
      ~size:(mss + header) ~kind:Packet.Tcp_data ~seq
      ~sent_at:(Sim.now s) ()
  in
  t.segments_sent <- t.segments_sent + 1;
  t.max_sent <- Stdlib.max t.max_sent (seq + 1);
  if retransmission then begin
    t.retransmissions <- t.retransmissions + 1;
    t.retx_floor <- Stdlib.max t.retx_floor (seq + 1);
    if t.timed_seq = Some seq then t.timed_seq <- None
  end
  else if t.timed_seq = None && seq >= t.retx_floor then begin
    t.timed_seq <- Some seq;
    t.timed_at <- Sim.now s
  end;
  Net.inject t.net pkt

and try_send t =
  let limit = backlog_limit t in
  let window = int_of_float t.cwnd in
  let continue = ref true in
  while !continue do
    if t.next_to_send < limit && t.next_to_send - t.highest_acked < window then begin
      let had_outstanding = flight_size t > 0 in
      (* After a timeout [next_to_send] rewinds to the cumulative ACK:
         everything up to [max_sent] is then a (go-back-N) resend. *)
      transmit t t.next_to_send ~retransmission:(t.next_to_send < t.max_sent);
      t.next_to_send <- t.next_to_send + 1;
      if not had_outstanding then restart_timer t
    end
    else continue := false
  done

and on_timeout t =
  if flight_size t > 0 then begin
    t.timeouts <- t.timeouts + 1;
    t.ssthresh <- Float.max 2. (float_of_int (flight_size t) /. 2.);
    t.cwnd <- 1.;
    t.mode <- Normal;
    t.dupacks <- 0;
    t.timed_seq <- None;
    (* Exponential backoff; the next valid RTT sample recomputes it. *)
    t.rto <- Float.min max_rto (t.rto *. 2.);
    (* Slow-start retransmission: everything past the cumulative ACK is
       presumed lost and resent as the window reopens. *)
    t.next_to_send <- t.highest_acked;
    restart_timer t;
    try_send t
  end

let check_complete t =
  match t.backlog with
  | Some n when (not t.completed) && t.highest_acked >= n ->
      t.completed <- true;
      stop_timer t;
      t.complete_cb ()
  | Some _ | None -> ()

let maybe_sample_rtt t ack =
  match t.timed_seq with
  | Some seq when ack > seq ->
      update_rto t (Sim.now (sim t) -. t.timed_at);
      t.timed_seq <- None
  | Some _ | None -> ()

let enter_recovery t =
  t.ssthresh <- Float.max 2. (float_of_int (flight_size t) /. 2.);
  let recover = t.next_to_send - 1 in
  t.mode <- Recovery { recover };
  transmit t t.highest_acked ~retransmission:true;
  t.cwnd <- t.ssthresh +. 3.;
  restart_timer t

let on_new_ack t ack =
  maybe_sample_rtt t ack;
  let newly = ack - t.highest_acked in
  t.highest_acked <- ack;
  (match t.mode with
  | Recovery _ ->
      (* Plain Reno: any new ACK ends fast recovery and deflates the
         window.  (NewReno-style partial-ACK retransmission is
         deliberately not used: with repeated retransmission losses its
         per-dupack inflation is unbounded, whereas Reno falls back to
         the retransmission timer — the behaviour of the ns TCP agents
         of the paper's era.) *)
      t.mode <- Normal;
      t.dupacks <- 0;
      t.cwnd <- t.ssthresh
  | Normal ->
      t.dupacks <- 0;
      if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. float_of_int newly
      else t.cwnd <- t.cwnd +. (float_of_int newly /. t.cwnd));
  if flight_size t > 0 then restart_timer t else stop_timer t;
  try_send t;
  check_complete t

let on_dup_ack t =
  (match t.mode with
  | Recovery _ ->
      (* Window inflation per extra duplicate. *)
      t.cwnd <- t.cwnd +. 1.
  | Normal ->
      t.dupacks <- t.dupacks + 1;
      if t.dupacks = 3 && flight_size t > 0 then enter_recovery t);
  try_send t

let handle_ack t (pkt : Packet.t) =
  if t.completed then ()
  else
    let ack = pkt.Packet.seq in
    if ack > t.highest_acked then on_new_ack t ack
    else if ack = t.highest_acked && flight_size t > 0 then on_dup_ack t

let create net ~src ~dst () =
  let flow = Sim.fresh_flow_id (Net.sim net) in
  let t =
    {
      net;
      flow;
      src;
      dst;
      recv = { next_expected = 0; buffered = Hashtbl.create 64; delivered = 0 };
      started = false;
      next_to_send = 0;
      max_sent = 0;
      highest_acked = 0;
      backlog = Some 0;
      cwnd = initial_cwnd;
      ssthresh = initial_ssthresh;
      mode = Normal;
      dupacks = 0;
      srtt = None;
      rttvar = 0.;
      rto = 1.;
      timed_seq = None;
      timed_at = 0.;
      retx_floor = 0;
      timer_gen = 0;
      completed = false;
      complete_cb = (fun () -> ());
      segments_sent = 0;
      retransmissions = 0;
      timeouts = 0;
    }
  in
  Net.set_handler net ~node:dst ~flow (fun pkt ->
      match pkt.Packet.kind with
      | Packet.Tcp_data -> handle_data t pkt
      | Packet.Tcp_ack | Packet.Udp | Packet.Icmp_ttl_exceeded -> ());
  Net.set_handler net ~node:src ~flow (fun pkt ->
      match pkt.Packet.kind with
      | Packet.Tcp_ack -> handle_ack t pkt
      | Packet.Tcp_data | Packet.Udp | Packet.Icmp_ttl_exceeded -> ());
  t

let start t =
  if not t.started then begin
    t.started <- true;
    try_send t
  end

let supply t n =
  if n < 0 then invalid_arg "Tcp.supply: negative";
  (match t.backlog with
  | Some b ->
      t.backlog <- Some (b + n);
      if n > 0 then t.completed <- false
  | None -> ());
  if t.started then try_send t

let set_unlimited t =
  t.backlog <- None;
  if t.started then try_send t

let on_complete t f = t.complete_cb <- f
let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let rto t = t.rto
let highest_acked t = t.highest_acked
let segments_sent t = t.segments_sent
let retransmissions t = t.retransmissions
let timeouts t = t.timeouts
let delivered_in_order t = t.recv.delivered
