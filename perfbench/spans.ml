(* In-memory span recorder for the benchmark's own calls into each
   layer.  A span is (name, start, end, parent, op id); nesting comes
   from the enter/leave order on the calling domain.  Recording is off
   until [set_enabled], so the untraced measurement pays one branch per
   call boundary. *)

type span = {
  name : string;
  op : int;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  start_ns : int;
  mutable stop_ns : int;
}

type t = {
  mutable on : bool;
  mutable spans : span array;
  mutable len : int;
  mutable open_spans : int list;
}

let create () = { on = false; spans = [||]; len = 0; open_spans = [] }
let set_enabled t b = t.on <- b
let enabled t = t.on

let enter t ~op name =
  if t.on then begin
    let parent = match t.open_spans with p :: _ -> p | [] -> -1 in
    let s = { name; op; parent; start_ns = Measure.now_ns (); stop_ns = -1 } in
    if t.len = Array.length t.spans then
      t.spans <- Array.append t.spans (Array.make (max 1024 t.len) s);
    t.spans.(t.len) <- s;
    t.open_spans <- t.len :: t.open_spans;
    t.len <- t.len + 1
  end

let leave t =
  if t.on then
    match t.open_spans with
    | i :: rest ->
        t.spans.(i).stop_ns <- Measure.now_ns ();
        t.open_spans <- rest
    | [] -> invalid_arg "Spans.leave: no open span"

let with_span t ~op name f =
  enter t ~op name;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

(* Self time per span name, seconds: each span's duration minus the
   durations of its direct children, summed over the spans of that
   name. *)
let self_times t =
  let dur i = t.spans.(i).stop_ns - t.spans.(i).start_ns in
  let child = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.spans.(i).parent in
    if p >= 0 then child.(p) <- child.(p) + dur i
  done;
  let acc = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let name = t.spans.(i).name in
    let self = Option.value ~default:0 (Hashtbl.find_opt acc name) in
    Hashtbl.replace acc name (self + dur i - child.(i))
  done;
  fun name -> Measure.ns_to_s (Option.value ~default:0 (Hashtbl.find_opt acc name))

(* Chrome trace-event JSON ("X" complete events, microseconds), so the
   file opens in Perfetto beside the library's Obs.Trace export. *)
let chrome_json t =
  let t0 = if t.len = 0 then 0 else t.spans.(0).start_ns in
  let b = Buffer.create (128 * (t.len + 1)) in
  Buffer.add_string b "{\"traceEvents\": [";
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if i > 0 then Buffer.add_string b ",\n";
    Printf.bprintf b
      "{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"op\": %d, \"start_ns\": %d, \"end_ns\": %d}}"
      (Measure.json_string s.name)
      (float_of_int (s.start_ns - t0) /. 1e3)
      (float_of_int (s.stop_ns - s.start_ns) /. 1e3)
      i s.parent s.op s.start_ns s.stop_ns
  done;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* Self time of the library's own [name] spans in the Obs.Trace window,
   matched per shard with a begin/end stack.  Events whose partner fell
   out of the ring are skipped. *)
let obs_self_s name =
  let stacks = Hashtbl.create 4 in
  let self = ref 0 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.Obs.Trace.ev_shard) in
      match e.Obs.Trace.ev_phase with
      | Obs.Trace.B ->
          Hashtbl.replace stacks e.Obs.Trace.ev_shard
            ((e.Obs.Trace.ev_name, e.Obs.Trace.ev_ts, ref 0) :: stack)
      | Obs.Trace.E -> (
          match stack with
          | (n, start, children) :: rest when n = e.Obs.Trace.ev_name ->
              let dur = e.Obs.Trace.ev_ts - start in
              if n = name then self := !self + dur - !children;
              (match rest with (_, _, up) :: _ -> up := !up + dur | [] -> ());
              Hashtbl.replace stacks e.Obs.Trace.ev_shard rest
          | _ -> ())
      | Obs.Trace.I | Obs.Trace.C -> ())
    (Obs.Trace.events ());
  Measure.ns_to_s !self
