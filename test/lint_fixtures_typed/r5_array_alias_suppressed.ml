(* lint-fixture: lib/em/r5_array_alias_suppressed.ml *) (* lint: allow R6 fixture module has no interface by design *)

(* lint: hot *)
let fast_get = Array.unsafe_get
(* lint: end-hot *)

let read (a : float array) i =
  (* lint: allow R5 index is validated by the caller; fixture exercises suppression *)
  fast_get a i
