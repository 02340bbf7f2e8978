(* Unit, integration, and property tests for the discrete-event network
   simulator. *)

open Netsim

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

let mk_packet sim ~src ~dst ?(size = 1000) ?(flow = 0) ?(seq = 0) () =
  Packet.make ~id:(Sim.fresh_packet_id sim) ~flow ~src ~dst ~size ~kind:Packet.Udp ~seq
    ~sent_at:(Sim.now sim) ()

(* --- Eventq ------------------------------------------------------------ *)

let push q ~time x = Eventq.push q ~time ~seq:(Eventq.fresh_seq q) x

let test_eventq_order () =
  let q = Eventq.create () in
  push q ~time:3. "c";
  push q ~time:1. "a";
  push q ~time:2. "b";
  let pops =
    List.init 3 (fun _ ->
        let time = Eventq.min_time q in
        (time, Eventq.pop q))
  in
  Alcotest.(check (list (pair (float 0.) string)))
    "sorted" [ (1., "a"); (2., "b"); (3., "c") ] pops;
  Alcotest.(check bool) "empty after" true (Eventq.is_empty q)

let test_eventq_fifo_ties () =
  let q = Eventq.create () in
  List.iter (fun s -> push q ~time:1. s) [ "x"; "y"; "z" ];
  let pops = List.init 3 (fun _ -> Eventq.pop q) in
  Alcotest.(check (list string)) "insertion order on ties" [ "x"; "y"; "z" ] pops;
  let early = Eventq.fresh_seq q in
  push q ~time:2. "late";
  Eventq.push q ~time:2. ~seq:early "early";
  let pops = List.init 2 (fun _ -> Eventq.pop q) in
  Alcotest.(check (list string)) "a number taken earlier fires first" [ "early"; "late" ] pops

let test_eventq_peek () =
  let q = Eventq.create () in
  Alcotest.(check (float 0.)) "empty min_time" infinity (Eventq.min_time q);
  Alcotest.check_raises "empty pop" (Invalid_argument "Eventq.pop: empty queue") (fun () ->
      Eventq.pop q);
  push q ~time:5. ();
  Alcotest.(check (float 0.)) "min_time" 5. (Eventq.min_time q);
  Alcotest.(check int) "length" 1 (Eventq.length q)

(* Interleaved pushes and pops over few distinct times (so most events
   tie), checked pop by pop against a reference model: the pending
   (time, insertion index) pairs kept stable-sorted by time, whose head
   is the event that must fire next. *)
let prop_eventq_exact_order =
  QCheck.Test.make ~name:"push/pop order is stable sort" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 300)
        (option ~ratio:0.6 (map (fun k -> 0.5 *. float_of_int k) (int_bound 7))))
    (fun ops ->
      let q = Eventq.create () in
      let model = ref [] and next = ref 0 in
      let pop_matches () =
        match !model with
        | [] -> Eventq.is_empty q
        | (time, idx) :: rest ->
            model := rest;
            let min_time = Eventq.min_time q in
            Float.equal min_time time && Eventq.pop q = idx
      in
      List.for_all
        (function
          | Some time ->
              push q ~time !next;
              model := List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
                  (!model @ [ (time, !next) ]);
              incr next;
              Eventq.length q = List.length !model
          | None -> pop_matches ())
        ops
      &&
      let rec drain () = Eventq.is_empty q || (pop_matches () && drain ()) in
      drain () && !model = [])

(* --- Sim --------------------------------------------------------------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim 2. (fun () -> log := "b" :: !log);
  Sim.at sim 1. (fun () -> log := "a" :: !log);
  Sim.after sim 3. (fun () -> log := "c" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3. (Sim.now sim)

let test_sim_run_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.at sim 1. (fun () -> incr fired);
  Sim.at sim 2. (fun () -> incr fired);
  Sim.at sim 5. (fun () -> incr fired);
  Sim.run_until sim 2.;
  Alcotest.(check int) "events at or before horizon" 2 !fired;
  check_float "clock at horizon" 2. (Sim.now sim);
  Sim.run_until sim 10.;
  Alcotest.(check int) "remaining" 3 !fired

let test_sim_past_scheduling () =
  let sim = Sim.create () in
  Sim.at sim 5. (fun () -> ());
  Sim.run sim;
  Alcotest.(check bool) "scheduling in the past raises" true
    (try
       Sim.at sim 1. (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim 1. (fun () ->
      log := "outer" :: !log;
      Sim.after sim 1. (fun () -> log := "inner" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_float "time" 2. (Sim.now sim)

let test_sim_every () =
  let sim = Sim.create () in
  let log = ref [] in
  let note s = log := (Sim.now sim, s) :: !log in
  Sim.at sim 3. (fun () -> note "before");
  Sim.every sim ~at:1. ~period:1. ~until:4. (fun i -> note (Printf.sprintf "tick %d" i));
  Sim.at sim 3. (fun () -> note "after");
  (* Pushed at t = 2.5, when tick 2 is already pending: the stream still
     keeps the tie order it took at the [every] call. *)
  Sim.at sim 2.5 (fun () -> Sim.at sim 3. (fun () -> note "late"));
  Sim.run sim;
  Alcotest.(check (list (pair (float 0.) string)))
    "ticks at start + i * period, ties as if pre-scheduled"
    [ (1., "tick 0"); (2., "tick 1"); (3., "before"); (3., "tick 2"); (3., "after"); (3., "late") ]
    (List.rev !log);
  let times = ref [] in
  Sim.every sim ~at:10. ~period:0.1 ~until:11. (fun _ -> times := Sim.now sim :: !times);
  Sim.run_until sim 11.;
  Alcotest.(check (list (float 0.)))
    "exact send times, window end excluded"
    (List.init 10 (fun i -> 10. +. (float_of_int i *. 0.1)))
    (List.rev !times);
  Alcotest.check_raises "start in the past"
    (Invalid_argument "Sim: scheduling in the past (1.000000000 < 11.000000000)")
    (fun () -> Sim.every sim ~at:1. ~period:1. ~until:20. ignore);
  Alcotest.check_raises "non-positive period" (Invalid_argument "Sim.every: period <= 0")
    (fun () -> Sim.every sim ~at:12. ~period:0. ~until:20. ignore)

(* The event loop reads the earliest time before popping, so an event
   costs the loop no allocation beyond the clock's boxed float. *)
let test_sim_loop_allocation () =
  let sim = Sim.create () in
  let n = 10_000 in
  let noop () = () in
  for i = 1 to n do
    Sim.at sim (float_of_int i) noop
  done;
  let w0 = Gc.minor_words () in
  Sim.run sim;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per event <= 2" per_event)
    true (per_event <= 2.)

let test_sim_fresh_ids () =
  let sim = Sim.create () in
  Alcotest.(check int) "packet ids dense" 0 (Sim.fresh_packet_id sim);
  Alcotest.(check int) "packet ids dense" 1 (Sim.fresh_packet_id sim);
  Alcotest.(check int) "flow ids dense" 0 (Sim.fresh_flow_id sim)

(* --- Packet ------------------------------------------------------------ *)

let test_packet_invalid_size () =
  Alcotest.check_raises "non-positive size"
    (Invalid_argument "Packet.make: non-positive size") (fun () ->
      ignore
        (Packet.make ~id:0 ~flow:0 ~src:0 ~dst:1 ~size:0 ~kind:Packet.Udp ~seq:0
           ~sent_at:0. ()))

(* --- Link -------------------------------------------------------------- *)

(* One-link harness: src node 0, dst node 1, recording deliveries. *)
let link_harness ?(bandwidth = 1e6) ?(capacity = 10_000) ?(policy = Link.Droptail)
    ?(delay = 0.01) () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~id:0 ~src:0 ~dst:1 ~bandwidth ~delay ~capacity ~policy ()
  in
  let delivered = ref [] in
  Link.set_deliver link (fun pkt -> delivered := (Sim.now sim, pkt) :: !delivered);
  (sim, link, delivered)

let test_link_single_packet_delay () =
  let sim, link, delivered = link_harness () in
  Sim.at sim 0. (fun () -> Link.offer link (mk_packet sim ~src:0 ~dst:1 ~size:1000 ()));
  Sim.run sim;
  match !delivered with
  | [ (t, _) ] ->
      (* 1000 bytes at 1 Mb/s = 8 ms transmission + 10 ms propagation. *)
      check_float "delay = tx + prop" 0.018 t
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_link_fifo_and_serialization () =
  let sim, link, delivered = link_harness () in
  Sim.at sim 0. (fun () ->
      Link.offer link (mk_packet sim ~src:0 ~dst:1 ~seq:0 ());
      Link.offer link (mk_packet sim ~src:0 ~dst:1 ~seq:1 ()));
  Sim.run sim;
  match List.rev !delivered with
  | [ (t1, p1); (t2, p2) ] ->
      Alcotest.(check int) "fifo order" 0 p1.Packet.seq;
      Alcotest.(check int) "fifo order" 1 p2.Packet.seq;
      check_float "first" 0.018 t1;
      check_float "second waits for serialization" 0.026 t2
  | _ -> Alcotest.fail "expected two deliveries"

let test_link_droptail_overflow () =
  (* Capacity 2000 bytes of waiting room with mtu 1040: waiting room is
     full for a new arrival once 1000 bytes wait (1000 + 1040 > 2000).
     First packet goes into service, second waits, third drops. *)
  let sim, link, delivered = link_harness ~capacity:2000 () in
  Sim.at sim 0. (fun () ->
      for i = 0 to 2 do
        Link.offer link (mk_packet sim ~src:0 ~dst:1 ~seq:i ())
      done);
  Sim.run sim;
  Alcotest.(check int) "arrivals" 3 (Link.arrivals link);
  Alcotest.(check int) "drops" 1 (Link.drops link);
  Alcotest.(check int) "delivered" 2 (List.length !delivered);
  check_close 1e-9 "loss rate" (1. /. 3.) (Link.loss_rate link)

let test_link_mtu_room_rule () =
  (* A 10-byte probe must be dropped exactly when a full-size packet
     would be (ns packet-mode emulation). *)
  let sim, link, _ = link_harness ~capacity:2000 () in
  Sim.at sim 0. (fun () ->
      Link.offer link (mk_packet sim ~src:0 ~dst:1 ());
      Link.offer link (mk_packet sim ~src:0 ~dst:1 ());
      check_float "probe sees full queue" 1. (Link.would_drop link ~size:10);
      Link.offer link (mk_packet sim ~src:0 ~dst:1 ~size:10 ()));
  Sim.run sim;
  Alcotest.(check int) "probe dropped" 1 (Link.drops link)

let test_link_unfinished_work () =
  let sim, link, _ = link_harness ~capacity:100_000 () in
  Sim.at sim 0. (fun () ->
      check_float "idle link" 0. (Link.unfinished_work link);
      Link.offer link (mk_packet sim ~src:0 ~dst:1 ());
      Link.offer link (mk_packet sim ~src:0 ~dst:1 ());
      (* 2 x 8 ms of work just queued. *)
      check_close 1e-9 "two packets of work" 0.016 (Link.unfinished_work link));
  Sim.at sim 0.004 (fun () ->
      (* Half of the first packet transmitted. *)
      check_close 1e-9 "work drains at line rate" 0.012 (Link.unfinished_work link));
  Sim.run sim;
  check_float "drained" 0. (Link.unfinished_work link)

let test_link_max_queuing_delay () =
  let _, link, _ = link_harness ~bandwidth:1e6 ~capacity:10_000 () in
  check_float "capacity drain time" 0.08 (Link.max_queuing_delay link)

let test_link_busy_time () =
  let sim, link, _ = link_harness () in
  Sim.at sim 0. (fun () ->
      Link.offer link (mk_packet sim ~src:0 ~dst:1 ());
      Link.offer link (mk_packet sim ~src:0 ~dst:1 ()));
  Sim.run sim;
  check_close 1e-9 "busy time = 2 transmissions" 0.016 (Link.busy_time link)

let test_link_conservation () =
  (* arrivals = departures + drops once the link drains. *)
  let sim, link, _ = link_harness ~capacity:3000 () in
  let rng = Stats.Rng.create 99 in
  for i = 0 to 199 do
    Sim.at sim (0.005 *. float_of_int i +. Stats.Rng.float rng *. 0.004) (fun () ->
        Link.offer link (mk_packet sim ~src:0 ~dst:1 ()))
  done;
  Sim.run sim;
  Alcotest.(check int) "conservation" (Link.arrivals link)
    (Link.departures link + Link.drops link)

let test_link_invalid_args () =
  let sim = Sim.create () in
  let mk ~bandwidth ~delay ~capacity () =
    ignore
      (Link.create sim ~id:0 ~src:0 ~dst:1 ~bandwidth ~delay ~capacity
         ~policy:Link.Droptail ())
  in
  Alcotest.check_raises "bad bandwidth" (Invalid_argument "Link.create: bandwidth <= 0")
    (mk ~bandwidth:0. ~delay:0.1 ~capacity:100);
  Alcotest.check_raises "bad delay" (Invalid_argument "Link.create: negative delay")
    (mk ~bandwidth:1e6 ~delay:(-1.) ~capacity:100);
  Alcotest.check_raises "bad capacity" (Invalid_argument "Link.create: capacity <= 0")
    (mk ~bandwidth:1e6 ~delay:0.1 ~capacity:0)

(* --- RED --------------------------------------------------------------- *)

let test_red_no_drop_below_min_th () =
  let red = Red.create ~min_th:5. ~max_th:15. ~mean_pkt_time:0.008 () in
  let rng = Stats.Rng.create 1 in
  for i = 0 to 3000 do
    if Red.decide red ~rng ~qlen:2 ~now:(0.001 *. float_of_int i) then
      Alcotest.fail "dropped below min_th"
  done;
  Alcotest.(check bool) "avg tracks queue" true (Red.avg red > 1.5 && Red.avg red < 2.5)

let test_red_always_drop_above_2maxth () =
  let red = Red.create ~min_th:2. ~max_th:4. ~mean_pkt_time:0.008 () in
  let rng = Stats.Rng.create 1 in
  (* Force the EWMA up with a long stream of large queue samples. *)
  for i = 0 to 5000 do
    ignore (Red.decide red ~rng ~qlen:50 ~now:(0.001 *. float_of_int i))
  done;
  Alcotest.(check bool) "avg above gentle region" true (Red.avg red > 8.);
  Alcotest.(check bool) "drops with certainty" true
    (Red.decide red ~rng ~qlen:50 ~now:6.)

let test_red_ramp_probability () =
  let red = Red.create ~min_th:5. ~max_th:15. ~initial_max_p:0.1 ~mean_pkt_time:0.008 () in
  let rng = Stats.Rng.create 2 in
  (* Drive avg to ~10 (mid-ramp). *)
  for i = 0 to 5000 do
    ignore (Red.decide red ~rng ~qlen:10 ~now:(0.0001 *. float_of_int i))
  done;
  let p = Red.drop_probability red ~qlen:10 ~now:1. in
  Alcotest.(check bool) "mid-ramp probability positive and below max_p+eps" true
    (p > 0. && p <= Red.max_p red +. 1e-9)

let test_red_adaptation_bounds () =
  let red = Red.create ~min_th:5. ~max_th:15. ~mean_pkt_time:0.008 () in
  let rng = Stats.Rng.create 3 in
  for i = 0 to 20_000 do
    ignore (Red.decide red ~rng ~qlen:30 ~now:(0.01 *. float_of_int i))
  done;
  Alcotest.(check bool) "max_p stays within [0.01, 0.5]" true
    (Red.max_p red >= 0.01 -. 1e-9 && Red.max_p red <= 0.5 +. 1e-9)

let test_red_idle_aging () =
  let red = Red.create ~min_th:5. ~max_th:15. ~mean_pkt_time:0.001 () in
  let rng = Stats.Rng.create 4 in
  for i = 0 to 2000 do
    ignore (Red.decide red ~rng ~qlen:12 ~now:(0.001 *. float_of_int i))
  done;
  let before = Red.avg red in
  Red.note_idle_start red ~now:2.;
  ignore (Red.decide red ~rng ~qlen:0 ~now:4.);
  Alcotest.(check bool) "idle period decays the average" true (Red.avg red < before /. 2.)

let test_red_invalid () =
  Alcotest.check_raises "bad thresholds"
    (Invalid_argument "Red.create: need 0 < min_th < max_th") (fun () ->
      ignore (Red.create ~min_th:5. ~max_th:5. ~mean_pkt_time:0.01 ()))

(* --- Net --------------------------------------------------------------- *)

let chain_net n_nodes =
  let sim = Sim.create () in
  let net = Net.create sim in
  let nodes = Array.init n_nodes (fun i -> Net.add_node net (Printf.sprintf "n%d" i)) in
  let links =
    Array.init (n_nodes - 1) (fun i ->
        fst
          (Net.add_duplex net ~a:nodes.(i) ~b:nodes.(i + 1) ~bandwidth:1e6 ~delay:0.001
             ~capacity:100_000 ()))
  in
  Net.compute_routes net;
  (sim, net, nodes, links)

let test_net_end_to_end_delivery () =
  let sim, net, nodes, _ = chain_net 4 in
  let got = ref None in
  Net.set_handler net ~node:nodes.(3) ~flow:7 (fun pkt -> got := Some (Sim.now sim, pkt));
  Sim.at sim 0. (fun () ->
      Net.inject net
        (Packet.make ~id:0 ~flow:7 ~src:nodes.(0) ~dst:nodes.(3) ~size:1000
           ~kind:Packet.Udp ~seq:0 ~sent_at:0. ()));
  Sim.run sim;
  match !got with
  | Some (t, pkt) ->
      Alcotest.(check int) "right packet" 0 pkt.Packet.seq;
      (* 3 hops x (8 ms tx + 1 ms prop). *)
      check_close 1e-9 "delivery time" 0.027 t
  | None -> Alcotest.fail "packet not delivered"

let test_net_path_links () =
  let _, net, nodes, links = chain_net 4 in
  let path = Net.path_links net ~src:nodes.(0) ~dst:nodes.(3) in
  Alcotest.(check int) "3 links" 3 (List.length path);
  Alcotest.(check (list int)) "right links"
    (List.map Link.id (Array.to_list links))
    (List.map Link.id path)

let test_net_default_handler () =
  let sim, net, nodes, _ = chain_net 2 in
  let count = ref 0 in
  Net.set_default_handler net ~node:nodes.(1) (fun _ -> incr count);
  Sim.at sim 0. (fun () ->
      Net.inject net
        (Packet.make ~id:0 ~flow:12345 ~src:nodes.(0) ~dst:nodes.(1) ~size:100
           ~kind:Packet.Udp ~seq:0 ~sent_at:0. ()));
  Sim.run sim;
  Alcotest.(check int) "default handler used" 1 !count

let test_net_no_route () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let a = Net.add_node net "a" in
  let b = Net.add_node net "b" in
  Net.compute_routes net;
  Alcotest.(check bool) "unroutable raises" true
    (try
       Net.inject net
         (Packet.make ~id:0 ~flow:0 ~src:a ~dst:b ~size:10 ~kind:Packet.Udp ~seq:0
            ~sent_at:0. ());
       false
     with Failure _ -> true)

let test_net_stale_routes () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let a = Net.add_node net "a" in
  let b = Net.add_node net "b" in
  ignore (Net.add_duplex net ~a ~b ~bandwidth:1e6 ~delay:0.001 ~capacity:1000 ());
  Alcotest.(check bool) "stale routes raise" true
    (try
       Net.inject net
         (Packet.make ~id:0 ~flow:0 ~src:a ~dst:b ~size:10 ~kind:Packet.Udp ~seq:0
            ~sent_at:0. ());
       false
     with Failure _ -> true)

let test_net_shortest_path () =
  (* Diamond: a-b-d and a-c-e-d; routing must pick the 2-hop branch. *)
  let sim = Sim.create () in
  let net = Net.create sim in
  let a = Net.add_node net "a" and b = Net.add_node net "b" in
  let c = Net.add_node net "c" and e = Net.add_node net "e" in
  let d = Net.add_node net "d" in
  let add x y = ignore (Net.add_duplex net ~a:x ~b:y ~bandwidth:1e6 ~delay:0.001 ~capacity:10_000 ()) in
  add a b;
  add b d;
  add a c;
  add c e;
  add e d;
  Net.compute_routes net;
  Alcotest.(check int) "min-hop route" 2 (List.length (Net.path_links net ~src:a ~dst:d))

let test_net_node_names () =
  let _, net, nodes, _ = chain_net 2 in
  Alcotest.(check string) "name" "n0" (Net.node_name net nodes.(0));
  Alcotest.(check int) "count" 2 (Net.node_count net);
  Alcotest.check_raises "bad id" (Invalid_argument "Net.node_name: bad node id")
    (fun () -> ignore (Net.node_name net 99))

(* Packet conservation across a congested chain under random load. *)
let test_net_conservation_under_load () =
  let sim, net, nodes, links = chain_net 3 in
  let received = ref 0 in
  Net.set_default_handler net ~node:nodes.(2) (fun _ -> incr received);
  let rng = Stats.Rng.create 5 in
  let sent = 500 in
  for _ = 1 to sent do
    let t = Stats.Rng.float rng *. 2. in
    Sim.at sim t (fun () ->
        Net.inject net
          (Packet.make ~id:(Sim.fresh_packet_id sim) ~flow:0 ~src:nodes.(0)
             ~dst:nodes.(2) ~size:1000 ~kind:Packet.Udp ~seq:0 ~sent_at:t ()))
  done;
  Sim.run sim;
  let dropped = Array.fold_left (fun acc l -> acc + Link.drops l) 0 links in
  Alcotest.(check int) "sent = received + dropped" sent (!received + dropped)

let qcheck_cases = List.map (fun t -> QCheck_alcotest.to_alcotest t) [ prop_eventq_exact_order ]

let () =
  Alcotest.run "netsim"
    [
      ( "eventq",
        [
          Alcotest.test_case "order" `Quick test_eventq_order;
          Alcotest.test_case "fifo ties" `Quick test_eventq_fifo_ties;
          Alcotest.test_case "peek/length" `Quick test_eventq_peek;
        ] );
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "run_until" `Quick test_sim_run_until;
          Alcotest.test_case "past scheduling" `Quick test_sim_past_scheduling;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested_scheduling;
          Alcotest.test_case "fresh ids" `Quick test_sim_fresh_ids;
          Alcotest.test_case "every" `Quick test_sim_every;
          Alcotest.test_case "loop allocation" `Quick test_sim_loop_allocation;
        ] );
      ("packet", [ Alcotest.test_case "invalid size" `Quick test_packet_invalid_size ]);
      ( "link",
        [
          Alcotest.test_case "single packet delay" `Quick test_link_single_packet_delay;
          Alcotest.test_case "fifo + serialization" `Quick test_link_fifo_and_serialization;
          Alcotest.test_case "droptail overflow" `Quick test_link_droptail_overflow;
          Alcotest.test_case "mtu-room rule" `Quick test_link_mtu_room_rule;
          Alcotest.test_case "unfinished work" `Quick test_link_unfinished_work;
          Alcotest.test_case "max queuing delay" `Quick test_link_max_queuing_delay;
          Alcotest.test_case "busy time" `Quick test_link_busy_time;
          Alcotest.test_case "conservation" `Quick test_link_conservation;
          Alcotest.test_case "invalid args" `Quick test_link_invalid_args;
        ] );
      ( "red",
        [
          Alcotest.test_case "no drop below min_th" `Quick test_red_no_drop_below_min_th;
          Alcotest.test_case "certain drop above 2*max_th" `Quick
            test_red_always_drop_above_2maxth;
          Alcotest.test_case "ramp probability" `Quick test_red_ramp_probability;
          Alcotest.test_case "adaptation bounds" `Quick test_red_adaptation_bounds;
          Alcotest.test_case "idle aging" `Quick test_red_idle_aging;
          Alcotest.test_case "invalid" `Quick test_red_invalid;
        ] );
      ( "net",
        [
          Alcotest.test_case "end-end delivery" `Quick test_net_end_to_end_delivery;
          Alcotest.test_case "path links" `Quick test_net_path_links;
          Alcotest.test_case "default handler" `Quick test_net_default_handler;
          Alcotest.test_case "no route" `Quick test_net_no_route;
          Alcotest.test_case "stale routes" `Quick test_net_stale_routes;
          Alcotest.test_case "shortest path" `Quick test_net_shortest_path;
          Alcotest.test_case "node names" `Quick test_net_node_names;
          Alcotest.test_case "conservation under load" `Quick
            test_net_conservation_under_load;
        ] );
      ("properties", qcheck_cases);
    ]
