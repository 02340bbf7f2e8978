(* lint-fixture: lib/fleet/r3_float_equal_suppressed.ml *) (* lint: allow R6 fixture module has no interface by design *)

let is_unit_scale sc =
  (* lint: allow R3 fixture exercises suppression of the Float.equal leg of R3 *)
  Float.equal sc 1.
