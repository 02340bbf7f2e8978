(* lint-fixture: lib/fleet/r7_via_local_fn.ml *) (* lint: allow R6 fixture module has no interface by design *)

(* Reachability, not just direct capture: the worker closure touches
   driver state through a unit-local helper chain. *)

(* lint: owner driver *)
let sched_state = ref 0

let read_sched () = !sched_state
let indirect () = read_sched () + 1

let sweep n =
  Stats.Pool.run ~chunk:1 ~participants:2 n (fun _i ->
      ignore (indirect ()) (* expect: R7 *))
