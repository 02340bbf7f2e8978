(* lint-fixture: lib/em/r5_array_alias_violation.ml *) (* lint: allow R6 fixture module has no interface by design *)

(* In lib/em the typed pass follows aliases of Array's unchecked
   accessors as it does Bigarray's: binding one inside a fence does not
   license applying it outside. *)

(* lint: hot *)
let fast_get = Array.unsafe_get
(* lint: end-hot *)

let read (a : float array) i = fast_get a i (* expect: R5 *)
