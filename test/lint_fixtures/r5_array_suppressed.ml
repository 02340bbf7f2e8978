(* lint-fixture: lib/em/r5as.ml *)
let peek (a : float array) =
  (* lint: allow R5 fixture exercises the suppression path, not a real access *)
  Array.unsafe_get a 0
