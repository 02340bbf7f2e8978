(** Deterministic pseudo-random number generation.

    All randomness in this repository flows through this module so that
    every simulation and every EM initialization is reproducible from a
    seed.  The generator is SplitMix64 (Steele, Lea, Flood 2014): a
    64-bit state advanced by a Weyl increment and finalized by a strong
    mixing function.  It is fast, passes BigCrush, and — crucially for
    simulations — supports cheap creation of statistically independent
    substreams via {!split}. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] returns a new generator whose stream is independent of
    the remainder of [t]'s stream.  [t] is advanced. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the
    same stream. *)

val float : t -> float
(** Uniform float in [\[0, 1)], 53-bit resolution. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n-1\]].  Requires [n > 0]. *)

val bool : t -> bool
(** Fair coin. *)
