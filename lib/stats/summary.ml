let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.quantile: empty sample";
  if q < 0. || q > 1. then invalid_arg "Summary.quantile: q out of [0,1]";
  let s = Array.copy xs in
  Array.sort compare s;
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float (Float.of_int (int_of_float pos)) in
  let frac = pos -. float_of_int i in
  if i >= n - 1 then s.(n - 1) else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let median xs = quantile xs 0.5
