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

(* Push [f] under [seq] at [time], which may lie in the past by
   rounding only (it is then clamped to the clock). *)
let schedule t ~seq time f =
  if time < t.now -. 1e-12 then
    invalid_arg (Printf.sprintf "Sim: scheduling in the past (%.9f < %.9f)" time t.now);
  Eventq.push t.events ~time:(Float.max time t.now) ~seq f

let at t time f = schedule t ~seq:(Eventq.fresh_seq t.events) time f

let after t d f =
  if d < 0. then invalid_arg "Sim.after: negative delay";
  at t (t.now +. d) f

let every t ~at:start ~period ~until f =
  if period <= 0. then invalid_arg "Sim.every: period <= 0";
  (* The stream keeps the number taken now, so each launch breaks a time
     tie as it would had the whole window been pushed by this call. *)
  let seq = Eventq.fresh_seq t.events in
  let rec fire i () =
    let next = start +. (float_of_int (i + 1) *. period) in
    if next < until then schedule t ~seq next (fire (i + 1));
    f i
  in
  if start < until then schedule t ~seq start (fire 0)

(* Fire events in (time, seq) order while the earliest is at or before
   [horizon].  The time is read before the pop, so per event the loop
   allocates only the clock's boxed float. *)
let drain t horizon =
  let track = Obs.enabled () in
  let events = ref 0 and depth_max = ref 0 in
  let continue = ref true in
  while !continue do
    let time = Eventq.min_time t.events in
    if time <= horizon && not (Eventq.is_empty t.events) then begin
      if track then begin
        let d = Eventq.length t.events in
        if d > !depth_max then depth_max := d
      end;
      let f = Eventq.pop t.events in
      t.now <- time;
      incr events;
      f ()
    end
    else continue := false
  done;
  flush_loop_stats ~track ~events:!events ~depth_max:!depth_max

let run_until t horizon =
  drain t horizon;
  t.now <- Float.max t.now horizon

let run t = drain t infinity

let fresh_packet_id t =
  let id = t.next_packet_id in
  t.next_packet_id <- id + 1;
  id

let fresh_flow_id t =
  let id = t.next_flow_id in
  t.next_flow_id <- id + 1;
  id
