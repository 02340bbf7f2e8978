(* lint-fixture: lib/em/r5a.ml *)
(* The EM sweep state is plain float arrays, so in lib/em an unchecked
   Array access outside a fence is a diagnostic; inside one it is the
   audited hot-path idiom. *)
let peek (a : float array) = Array.unsafe_get a 0 (* expect: R5 *)

let poke (a : float array) v = Stdlib.Array.unsafe_set a 0 v (* expect: R5 *)

let sum (a : float array) =
  (* lint: hot *)
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. Array.unsafe_get a i
  done;
  (* lint: end-hot *)
  !acc
