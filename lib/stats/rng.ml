type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Finalizer from SplitMix64: variant of MurmurHash3's 64-bit mix with
   David Stafford's "Mix13" constants. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let float t =
  (* Use the top 53 bits for a uniform dyadic rational in [0,1). *)
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x *. 0x1p-53

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the high bits to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let bits = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem bits n64 in
    if Int64.sub (Int64.add (Int64.sub bits v) n64) 1L < 0L then draw ()
    else Int64.to_int v
  in
  draw ()
