(* Row sums must stay left-to-right folds from 0.: seeded model
   initializers are pinned bit for bit through them. *)
let row_sum v off cols =
  let s = ref 0. in
  for j = 0 to cols - 1 do
    s := !s +. v.(off + j)
  done;
  !s

let row_normalize ~cols v =
  for i = 0 to (Array.length v / cols) - 1 do
    let off = i * cols in
    let s = row_sum v off cols in
    if s <= 0. then Array.fill v off cols (1. /. float_of_int cols)
    else
      for j = off to off + cols - 1 do
        v.(j) <- v.(j) /. s
      done
  done

let max_abs_diff a b =
  if Array.length a <> Array.length b then invalid_arg "Matrix.max_abs_diff: length mismatch";
  let d = ref 0. in
  Array.iteri
    (fun i x ->
      let e = abs_float (x -. b.(i)) in
      if e > !d then d := e)
    a;
  !d

let random_stochastic rng r c =
  let v = Array.init (r * c) (fun _ -> 0.05 +. Rng.float rng) in
  row_normalize ~cols:c v;
  v

let is_stochastic ?(eps = 1e-6) ~cols v =
  let n = Array.length v in
  let rec rows_ok off =
    off >= n || (Float_cmp.approx_eq ~eps (row_sum v off cols) 1. && rows_ok (off + cols))
  in
  cols > 0 && n mod cols = 0 && Array.for_all (fun x -> x >= 0.) v && rows_ok 0
