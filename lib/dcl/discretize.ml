type t = { m : int; lo : float; hi : float; width : float }
type prop_delay = Known of float | From_trace

let of_range ~m ~lo ~hi =
  if m <= 0 then invalid_arg "Discretize.of_range: m <= 0";
  if hi <= lo then invalid_arg "Discretize.of_range: hi <= lo";
  { m; lo; hi; width = (hi -. lo) /. float_of_int m }

let of_trace ~m ~prop_delay trace =
  let hi = Probe.Trace.max_delay trace in
  let lo =
    match prop_delay with Known p -> p | From_trace -> Probe.Trace.min_delay trace
  in
  if hi <= lo then
    invalid_arg "Discretize.of_trace: no delay spread (all observed delays equal)";
  of_range ~m ~lo ~hi

let symbol_of_delay t d =
  if d <= t.lo then 0
  else if d >= t.hi then t.m - 1
  else
    let j = int_of_float (ceil ((d -. t.lo) /. t.width)) - 1 in
    if j < 0 then 0 else if j >= t.m then t.m - 1 else j

let symbol_of_queuing t q = symbol_of_delay t (t.lo +. q)
let queuing_value t j = float_of_int (j + 1) *. t.width

(* Straight from the records, with one shared [Some j] per symbol: the
   result array is the only allocation.  [Identify.run] symbolizes its
   trace on every call, and each T-length block it allocates stays in
   the major heap until a major cycle completes. *)
let symbolize t (trace : Probe.Trace.t) =
  let some = Array.init t.m Option.some in
  Array.map
    (fun (r : Probe.Trace.record) ->
      match r.obs with
      | Probe.Trace.Lost -> None
      | Probe.Trace.Delay d -> some.(symbol_of_delay t d))
    trace.records
