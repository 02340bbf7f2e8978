(** Small dense-matrix helpers for the EM model initializers.  A
    matrix is a row-major [float array]: entry [(i, j)] of a matrix
    with [cols] columns is [v.(i * cols + j)]. *)

val row_normalize : cols:int -> float array -> unit
(** Make every row a stochastic vector in place.  Rows summing to zero
    are replaced by the uniform distribution. *)

val max_abs_diff : float array -> float array -> float
(** Largest entrywise absolute difference.  Requires equal lengths. *)

val random_stochastic : Rng.t -> int -> int -> float array
(** [random_stochastic rng r c]: a random [r]-by-[c] row-stochastic
    matrix with entries bounded away from 0 — the paper initializes
    the MMHD transition matrix randomly. *)

val is_stochastic : ?eps:float -> cols:int -> float array -> bool
(** [cols > 0], the length is a multiple of [cols], all entries are
    non-negative and every row sums to 1 within [eps] (default 1e-6). *)
