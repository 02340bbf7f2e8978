open Netsim

let ftp net ~src ~dst =
  let conn = Tcp.create net ~src ~dst () in
  Tcp.set_unlimited conn;
  conn

let ftp_at net ~src ~dst ~at =
  let conn = ftp net ~src ~dst in
  Sim.at (Net.sim net) at (fun () -> Tcp.start conn);
  conn

type http = {
  net : Net.t;
  src : int;
  dst : int;
  session_rate : float;
  rng : Stats.Rng.t;
  mutable running : bool;
  mutable pages_completed : int;
  mutable sessions_started : int;
}

(* Objects fetched per session, the Pareto shape and minimum (in
   segments) of an object's size, and the mean think time in seconds
   between a session's objects. *)
let pages_per_session = 5
let pareto_shape = 1.3
let min_page_segments = 2
let mean_think = 1.0

let http net ~src ~dst ~session_rate =
  if session_rate <= 0. then invalid_arg "Workload.http: session_rate <= 0";
  {
    net;
    src;
    dst;
    session_rate;
    rng = Stats.Rng.split (Sim.rng (Net.sim net));
    running = false;
    pages_completed = 0;
    sessions_started = 0;
  }

let page_size t =
  let x =
    Stats.Sampler.pareto t.rng ~shape:pareto_shape ~scale:(float_of_int min_page_segments)
  in
  (* Cap pathological tail draws so one object cannot occupy the
     bottleneck for the whole run. *)
  Stdlib.min 500 (int_of_float (ceil x))

let rec fetch_page t ~remaining =
  if t.running && remaining > 0 then begin
    let conn = Tcp.create t.net ~src:t.src ~dst:t.dst () in
    Tcp.supply conn (page_size t);
    Tcp.on_complete conn (fun () ->
        t.pages_completed <- t.pages_completed + 1;
        if remaining > 1 then begin
          let think = Stats.Sampler.exponential t.rng ~rate:(1. /. mean_think) in
          Sim.after (Net.sim t.net) think (fun () -> fetch_page t ~remaining:(remaining - 1))
        end);
    Tcp.start conn
  end

let rec session_arrivals t =
  if t.running then begin
    let gap = Stats.Sampler.exponential t.rng ~rate:t.session_rate in
    Sim.after (Net.sim t.net) gap (fun () ->
        if t.running then begin
          t.sessions_started <- t.sessions_started + 1;
          fetch_page t ~remaining:pages_per_session;
          session_arrivals t
        end)
  end

let http_start t =
  if not t.running then begin
    t.running <- true;
    session_arrivals t
  end

let http_pages_completed t = t.pages_completed
let http_sessions_started t = t.sessions_started
