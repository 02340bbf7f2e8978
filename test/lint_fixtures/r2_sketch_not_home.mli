(* Companion interface so the lib/-classified fixture passes R6. *)
val key : int array Domain.DLS.key
val scratch : unit -> int array
