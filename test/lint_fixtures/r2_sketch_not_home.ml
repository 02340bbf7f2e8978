(* lint-fixture: lib/sketch/front.ml *)
(* lib/sketch/ is not a concurrency home: its estimators and gates are
   plain per-path state that the fleet scheduler owns and updates on
   the driver domain, so domain primitives there are R2 diagnostics
   unless suppressed with a stated reason. *)
let key = Domain.DLS.new_key (fun () -> Array.make 4 0) (* expect: R2 *)
let scratch () = Domain.DLS.get key (* expect: R2 *)
