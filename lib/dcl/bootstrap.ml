type interval = {
  point : float;
  lo : float;
  hi : float;
  accept_fraction : float;
  replicates : int;
}

(* Resample the trace in contiguous blocks of [per_block] records,
   rewriting send times so the result is a well-formed trace of the
   same length. *)
let resample rng trace ~per_block =
  let records = trace.Probe.Trace.records in
  let n = Array.length records in
  let out = Array.make n records.(0) in
  let filled = ref 0 in
  while !filled < n do
    let start = Stats.Rng.int rng (Stdlib.max 1 (n - per_block + 1)) in
    let len = Stdlib.min per_block (n - !filled) in
    for i = 0 to len - 1 do
      let r = records.(start + i) in
      out.(!filled + i) <-
        { r with Probe.Trace.send_time = float_of_int (!filled + i) *. trace.Probe.Trace.interval }
    done;
    filled := !filled + len
  done;
  { trace with Probe.Trace.records = out }

let default_params =
  { Identify.default_params with Identify.model = Identify.Model_markov }

let f_statistic ?(params = default_params) ?(replicates = 50) ?(block = 20.)
    ?(confidence = 0.9) ~rng trace =
  if replicates <= 0 then invalid_arg "Bootstrap.f_statistic: replicates <= 0";
  if confidence <= 0. || confidence >= 1. then
    invalid_arg "Bootstrap.f_statistic: confidence must be in (0, 1)";
  let original = Identify.run ~params ~rng trace in
  let point = original.Identify.wdcl.Tests.f_at_two_d_star in
  let per_block =
    Stdlib.max 1 (int_of_float (block /. trace.Probe.Trace.interval))
  in
  let rngs = Array.init replicates (fun _ -> Stats.Rng.split rng) in
  let replicate k =
    let rng = rngs.(k) in
    let sample = resample rng trace ~per_block in
    if Identify.identifiable sample then begin
      let r = Identify.run ~params ~rng sample in
      Some
        ( r.Identify.wdcl.Tests.f_at_two_d_star,
          r.Identify.wdcl.Tests.verdict = Tests.Accept )
    end
    else None
  in
  let results = Array.init replicates replicate in
  let xs =
    Array.of_list
      (List.filter_map (Option.map fst) (Array.to_list results))
  in
  let accepts =
    Array.fold_left
      (fun n -> function Some (_, true) -> n + 1 | _ -> n)
      0 results
  in
  let lo, hi =
    if Array.length xs = 0 then (Float.nan, Float.nan)
    else
      let tail = (1. -. confidence) /. 2. in
      (Stats.Summary.quantile xs tail, Stats.Summary.quantile xs (1. -. tail))
  in
  {
    point;
    lo;
    hi;
    accept_fraction = float_of_int accepts /. float_of_int replicates;
    replicates;
  }
