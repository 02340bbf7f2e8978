(* lint-fixture: lib/em/em.ml *)
(* lib/em/ is not a concurrency home: every EM sweep runs serially, so
   domain primitives there are R2 diagnostics unless suppressed with a
   stated reason. *)
let key = Domain.DLS.new_key (fun () -> ref 0) (* expect: R2 *)
let slot () = Domain.DLS.get key (* expect: R2 *)
