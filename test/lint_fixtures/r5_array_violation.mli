(* Companion interface so the lib/-classified fixture passes R6. *)
val peek : float array -> float
val poke : float array -> float -> unit
val sum : float array -> float
