(* lint-fixture: lib/fleet/r7_owner_suppressed.ml *) (* lint: allow R6 fixture module has no interface by design *)

(* lint: owner driver *)
let epoch = ref 0

let sweep n =
  Stats.Pool.run ~chunk:1 ~participants:2 n (fun _i ->
      (* lint: allow R7 fixture demonstrates suppressing the ownership race *)
      ignore !epoch)
