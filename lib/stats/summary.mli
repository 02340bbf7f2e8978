(** Descriptive statistics over float samples. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [\[0,1\]]: linear-interpolation quantile
    of a copy of [xs] (the input is not modified).  Requires a
    non-empty array. *)

val median : float array -> float
