type t = {
  mutable now : float;
  events : (unit -> unit) Eventq.t;
  rng : Stats.Rng.t;
  mutable next_packet_id : int;
  mutable next_flow_id : int;
}

let create ?(seed = 1) () =
  {
    now = 0.;
    events = Eventq.create ();
    rng = Stats.Rng.create seed;
    next_packet_id = 0;
    next_flow_id = 0;
  }

let now t = t.now
let rng t = t.rng

(* Event-loop telemetry.  Counts are kept in plain locals during the
   loop (the loop is single-domain and allocation-sensitive) and
   flushed to the registry once when the loop drains, so the per-event
   overhead while enabled is one compare and two increments. *)
let m_events =
  Obs.Counter.make ~help:"Simulator events processed" "dcl_sim_events_total"

let m_depth_max =
  Obs.Gauge.make ~help:"Event-queue depth high-water mark"
    "dcl_sim_queue_depth_max"

let flush_loop_stats ~track ~events ~depth_max =
  if track && events > 0 then begin
    Obs.Counter.add m_events events;
    Obs.Gauge.set_max m_depth_max (float_of_int depth_max)
  end

let at t time f =
  if time < t.now -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Sim.at: scheduling in the past (%.9f < %.9f)" time t.now);
  Eventq.push t.events ~time:(Float.max time t.now) f

let after t d f =
  if d < 0. then invalid_arg "Sim.after: negative delay";
  at t (t.now +. d) f

let run_until t horizon =
  let track = Obs.enabled () in
  let events = ref 0 and depth_max = ref 0 in
  let continue = ref true in
  while !continue do
    match Eventq.peek_time t.events with
    | Some time when time <= horizon -> (
        if track then begin
          let d = Eventq.length t.events in
          if d > !depth_max then depth_max := d
        end;
        match Eventq.pop t.events with
        | Some (time, f) ->
            t.now <- time;
            incr events;
            f ()
        | None -> continue := false)
    | Some _ | None -> continue := false
  done;
  flush_loop_stats ~track ~events:!events ~depth_max:!depth_max;
  t.now <- Float.max t.now horizon

let run t =
  let track = Obs.enabled () in
  let events = ref 0 and depth_max = ref 0 in
  let continue = ref true in
  while !continue do
    (if track then
       let d = Eventq.length t.events in
       if d > !depth_max then depth_max := d);
    match Eventq.pop t.events with
    | Some (time, f) ->
        t.now <- time;
        incr events;
        f ()
    | None -> continue := false
  done;
  flush_loop_stats ~track ~events:!events ~depth_max:!depth_max

let fresh_packet_id t =
  let id = t.next_packet_id in
  t.next_packet_id <- id + 1;
  id

let fresh_flow_id t =
  let id = t.next_flow_id in
  t.next_flow_id <- id + 1;
  id
