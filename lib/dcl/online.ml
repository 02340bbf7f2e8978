type sample = {
  at : float;
  conclusion : Identify.conclusion option;
  f_at_two_d_star : float;
  loss_rate : float;
}

let h_window =
  Obs.Histogram.make ~help:"Latency of one sliding-window identification"
    "dcl_online_window_seconds"

let m_transitions =
  Obs.Counter.make
    ~help:"Conclusion changes between consecutive sliding windows"
    "dcl_online_conclusion_transitions_total"

let g_tail =
  Obs.Gauge.make
    ~help:"Trailing records left uncovered by the most recent scan"
    "dcl_online_tail_records"

let m_tail =
  Obs.Counter.make
    ~help:"Trailing records left uncovered by scans, cumulative"
    "dcl_online_tail_records_total"

(* Snap a float quotient that should be a whole number of records back
   onto that integer before truncation-style rounding.  [window /.
   interval] with decimal-fraction parameters (window 1.0, interval
   0.1) evaluates to 10.000000000000002 in binary floats; feeding that
   to [ceil] yields an 11-record window — a genuine off-by-one in
   which every window reads one record too many.  The relative epsilon
   keeps the snap meaningful for large quotients while never bridging
   a real fractional part. *)
let snap q =
  let r = Float.round q in
  if Stats.Float_cmp.approx_eq ~eps:(1e-9 *. Float.max 1. (Float.abs q)) q r
  then r
  else q

let scan ?(params = Identify.default_params) ?(domains = 1) ?on_change ~rng
    ~window ~stride trace =
  if stride <= 0. then invalid_arg "Online.scan: stride <= 0";
  let duration = Probe.Trace.duration trace in
  if window <= 0. || window > duration then
    invalid_arg "Online.scan: window must be in (0, duration]";
  let interval = trace.Probe.Trace.interval in
  let n = Probe.Trace.length trace in
  (* Window positions are walked in integer record indices.  The
     previous implementation accumulated [t +. stride] in floats and
     recovered the record index as [int_of_float (t /. interval)]; when
     stride is not exactly representable (e.g. 0.1) the accumulated sum
     drifts across record boundaries, duplicating some windows and
     skipping others.  Rounding the stride to a whole number of records
     once makes every window position exact. *)
  let per_window = int_of_float (ceil (snap (window /. interval))) in
  let stride_rec = max 1 (int_of_float (Float.round (snap (stride /. interval)))) in
  let count = if per_window > n then 0 else ((n - per_window) / stride_rec) + 1 in
  (* Coverage contract (see the .mli): records past the last window's
     end are silently analyzed by no window; surface how many so a
     monitoring deployment can alarm on a stride/window mismatch. *)
  let covered = if count = 0 then 0 else ((count - 1) * stride_rec) + per_window in
  let tail = n - covered in
  Obs.Gauge.set g_tail (float_of_int tail);
  if tail > 0 then Obs.Counter.add m_tail tail;
  (* One pre-split RNG per window: each window's identification is a
     pure function of its index, so the samples are identical whether
     the windows are evaluated serially or across domains. *)
  let rngs = Array.init count (fun _ -> Stats.Rng.split rng) in
  let eval w =
    let t0 = Obs.Span.start () in
    let pos = w * stride_rec in
    let segment = Probe.Trace.sub trace ~pos ~len:per_window in
    let last = segment.Probe.Trace.records.(per_window - 1).Probe.Trace.send_time in
    let sample =
      if Identify.identifiable segment then begin
        let r = Identify.run ~params ~rng:rngs.(w) segment in
        {
          at = last;
          conclusion = Some r.Identify.conclusion;
          f_at_two_d_star = r.Identify.wdcl.Tests.f_at_two_d_star;
          loss_rate = r.Identify.loss_rate;
        }
      end
      else
        {
          at = last;
          conclusion = None;
          f_at_two_d_star = Float.nan;
          loss_rate = Probe.Trace.loss_rate segment;
        }
    in
    Obs.Span.stop h_window t0;
    sample
  in
  let samples = Array.to_list (Stats.Par.map_range ~domains count eval) in
  (* Conclusion-transition events are emitted after all windows are
     collected (not from inside [eval]): with [domains > 1] the windows
     finish out of order, and the operator-facing event stream must be
     chronological. *)
  let rec walk i = function
    | a :: (b :: _ as rest) ->
        if b.conclusion <> a.conclusion then begin
          Obs.Counter.incr m_transitions;
          Obs.Trace.instant_d "online.transition" (Identify.verdict_name b.conclusion) i;
          match on_change with
          | Some f -> f ~at:b.at ~was:a.conclusion ~now:b.conclusion
          | None -> ()
        end;
        walk (i + 1) rest
    | [] | [ _ ] -> ()
  in
  walk 1 samples;
  samples

let changes samples =
  let rec collapse prev acc = function
    | [] -> List.rev acc
    | s :: rest ->
        if prev = None || Some s.conclusion <> prev then
          collapse (Some s.conclusion) ((s.at, s.conclusion) :: acc) rest
        else collapse prev acc rest
  in
  collapse None [] samples
