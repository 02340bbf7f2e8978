type t = {
  m : int;
  lo : float;
  hi : float;
  width : float;
  edges : float array;
  counts : int array;
  mutable total : int;
  mutable clamped : int;
}

let m_clamped =
  Obs.Counter.make
    ~help:"Samples outside [lo, hi] clamped into an edge bin"
    "dcl_histogram_clamped_total"

let create ~m ~lo ~hi =
  if m <= 0 then invalid_arg "Histogram.create: m <= 0";
  if hi <= lo then invalid_arg "Histogram.create: hi <= lo";
  let width = (hi -. lo) /. float_of_int m in
  {
    m;
    lo;
    hi;
    width;
    (* The shared boundary grid: bin [j] is the half-open interval
       [edges.(j), edges.(j + 1)) (the last bin also owns [hi]).
       Indexing and bin edges must come from the same grid — deriving
       the index from [(x - lo) / width] alone disagrees with the
       grid for samples sitting on a boundary whose product form
       rounds the other way, pushing them into the adjacent bin. *)
    edges = Array.init (m + 1) (fun j -> lo +. (float_of_int j *. width));
    counts = Array.make m 0;
    total = 0;
    clamped = 0;
  }

let lo t = t.lo
let width t = t.width

let index_of t x =
  if x <= t.lo then 0
  else if x >= t.hi then t.m - 1
  else begin
    (* Seed from the division, then walk at most one edge in either
       direction so the returned bin satisfies the half-open contract
       [edges.(j) <= x < edges.(j + 1)] exactly. *)
    let j = ref (int_of_float ((x -. t.lo) /. t.width)) in
    if !j > t.m - 1 then j := t.m - 1;
    if !j < 0 then j := 0;
    while !j > 0 && x < t.edges.(!j) do
      decr j
    done;
    while !j < t.m - 1 && x >= t.edges.(!j + 1) do
      incr j
    done;
    !j
  end

let value_of t j = t.lo +. (float_of_int (j + 1) *. t.width)

let add t x =
  if x < t.lo || x > t.hi then begin
    t.clamped <- t.clamped + 1;
    Obs.Counter.incr m_clamped
  end;
  let j = index_of t x in
  t.counts.(j) <- t.counts.(j) + 1;
  t.total <- t.total + 1

let total t = t.total
let clamped t = t.clamped

let pmf t =
  if t.total = 0 then Array.make t.m 0.
  else
    let n = float_of_int t.total in
    Array.map (fun c -> float_of_int c /. n) t.counts

let mode_value t =
  if t.total = 0 then invalid_arg "Histogram.mode_value: empty histogram";
  let best = ref 0 in
  for j = 1 to t.m - 1 do
    if t.counts.(j) > t.counts.(!best) then best := j
  done;
  value_of t !best

let cdf_of_pmf p =
  let n = Array.length p in
  let c = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. p.(i);
    c.(i) <- !acc
  done;
  if n > 0 && Float_cmp.approx_eq ~eps:1e-9 c.(n - 1) 1. then c.(n - 1) <- 1.;
  c

let normalize v =
  let s = Array.fold_left ( +. ) 0. v in
  if s <= 0. then invalid_arg "Histogram.normalize: non-positive sum";
  Array.map (fun x -> x /. s) v

let total_variation p q =
  if Array.length p <> Array.length q then
    invalid_arg "Histogram.total_variation: length mismatch";
  let acc = ref 0. in
  Array.iteri (fun i pi -> acc := !acc +. abs_float (pi -. q.(i))) p;
  0.5 *. !acc
