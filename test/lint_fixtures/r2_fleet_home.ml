(* lint-fixture: lib/fleet/scheduler.ml *)
(* The fleet layer is a sanctioned concurrency home: it owns the epoch
   fan-out over the pool, so none of these produce R2 diagnostics. *)
let key = Domain.DLS.new_key (fun () -> Hashtbl.create 8)
let cache () = Domain.DLS.get key
