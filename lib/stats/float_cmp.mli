(** The one sanctioned home for float comparison semantics.

    The SDCL/WDCL hypothesis tests compare an estimated CDF value
    [F] at twice the [d_star] quantile against a threshold derived
    from Theorems 1-2; the [d_star] walk and the [Q_max] bounds sit on
    the same kind of boundary.  An accidental exact [=] (or a hand-rolled
    [abs_float (a -. b) < eps] with a locally invented [eps]) at any of
    those sites silently changes the paper's accept/reject conclusions,
    so [dcl-lint] rule R3 forbids both everywhere except this module,
    and every boundary-sensitive comparison routes through here.

    All predicates are [false] when either operand is NaN (including
    [approx_eq nan nan]), matching IEEE comparison semantics. *)

val approx_eq : ?eps:float -> float -> float -> bool
(** [approx_eq a b] is [abs_float (a -. b) <= eps] (default
    [eps = 1e-9]).  [eps = 0.] gives exact equality with NaN-safe
    semantics. *)

val is_zero : ?eps:float -> float -> bool
(** [approx_eq x 0.]: near-zero guard for denominators. *)

(** Threshold comparisons.  [slack] (default [0.]) widens acceptance:
    [geq ~slack a b] holds when [a >= b -. slack].  With the default
    slack these are exactly [>=] / [>] / [<=] / [<] — the point is the
    single audited call site, not a hidden tolerance. *)

val geq : ?slack:float -> float -> float -> bool
val gt : ?slack:float -> float -> float -> bool
val leq : ?slack:float -> float -> float -> bool
val lt : ?slack:float -> float -> float -> bool

val round_to_int : float -> int
(** Nearest integer (ties away from zero, [Float.round]) as an [int] —
    the sanctioned home for deriving counts from fractions
    ([round (fraction * total)]), where a raw [<] against an index
    misrounds at representability boundaries such as [0.3 *. 8.].
    Raises [Invalid_argument] on NaN or values outside [int] range. *)
