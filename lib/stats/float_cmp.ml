(* The only module allowed to compare floats directly: dcl-lint rule R3
   exempts lib/stats/float_cmp.ml and flags =, <>, compare and
   hand-rolled abs_float tolerance tests everywhere else. *)

let approx_eq ?(eps = 1e-9) a b = abs_float (a -. b) <= eps

let is_zero ?eps x = approx_eq ?eps x 0.

let geq (a : float) b = a >= b
let gt (a : float) b = a > b
let leq (a : float) b = a <= b
let lt (a : float) b = a < b

(* Counts derived from fractions (congested_fraction * templates, ...)
   sit on representability boundaries: 0.3 * 8 is 2.4000000000000004,
   and a raw `<` against an index misrounds exactly where it matters.
   Rounding to the nearest integer in one audited place keeps every
   such boundary decision here. *)
let round_to_int x =
  if Float.is_nan x then invalid_arg "Stats.Float_cmp.round_to_int: nan";
  let r = Float.round x in
  (* float_of_int max_int rounds up to 2^62, which is itself out of
     range, hence the asymmetric >=. *)
  if r < float_of_int min_int || r >= float_of_int max_int then
    invalid_arg "Stats.Float_cmp.round_to_int: out of int range";
  int_of_float r
