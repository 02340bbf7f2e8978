(* Companion interface so the lib/-classified fixture passes R6. *)
val peek : float array -> float
