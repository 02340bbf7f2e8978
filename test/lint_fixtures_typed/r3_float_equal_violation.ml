(* lint-fixture: lib/fleet/r3_float_equal_violation.ml *) (* lint: allow R6 fixture module has no interface by design *)

(* The Float module's comparisons are as exact as polymorphic [=] on
   floats; only their names say so. *)

let eq a b = Float.equal a b (* expect: R3 *)

let cmp a b = Float.compare a b (* expect: R3 *)
