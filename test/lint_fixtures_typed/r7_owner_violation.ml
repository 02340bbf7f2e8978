(* lint-fixture: lib/fleet/r7_owner_violation.ml *) (* lint: allow R6 fixture module has no interface by design *)

(* The seeded race of the acceptance criteria: a pool-worker closure
   reads driver-owned scheduler state. *)

(* lint: owner driver *)
let epoch = ref 0

let sweep n =
  Stats.Pool.run ~chunk:1 ~participants:2 n (fun _i ->
      ignore !epoch (* expect: R7 *))
