(** Bigarray-backed hot state and whole-sequence kernels for the shared
    EM sweep (library-internal; the public surface is {!Em}).

    The workspace record is exposed transparently so {!Em}'s M-step and
    posterior extractors can read the sweep buffers without a forest of
    accessors. *)

module Ba = Bigarray.Array1

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Ba.t

type model = {
  s : int;
  m : int;
  pi : float array;
  a : float array;
  b : float array;
  c : float array;
}

exception Zero_likelihood of int

type workspace = {
  mutable alpha : buf;
  mutable beta : buf;
  mutable scale : buf;
  mutable cls : int array;
  mutable e_all : buf;
  mutable w : buf;
  mutable a_r : buf;
  mutable a_t : buf;
  mutable pi_b : buf;
  mutable act : int array;
  mutable act_len : int array;
  mutable xi : buf;
  mutable gamma_sum : buf;
  mutable count_obs : buf;
  mutable count_loss : buf;
  mutable tmp : buf;
  mutable cap_t : int;
  mutable cap_s : int;
  mutable cap_m : int;
}

val create : unit -> workspace
(** A fresh (empty) workspace. *)

val reserve : workspace -> tt:int -> s:int -> m:int -> unit
(** Grow (never shrink) every buffer for a [tt]-step sweep of an
    [s]-state, [m]-symbol model.  Amortized allocation-free on reuse. *)

val reject_symbols : who:string -> m:int -> int option array -> unit
(** Raises [Invalid_argument] (prefixed by [who]) naming the time index
    of the first symbol outside [\[0, m)]; returns if there is none.
    The slow path of the range test in {!classify} and
    [Em.check_symbols]. *)

val classify : workspace -> model -> int option array -> unit
(** Collapse the observations into integer classes in [cls] (symbol
    [j], or [m] for a loss).  Raises [Invalid_argument] naming the time
    index of the first symbol outside [\[0, m)]. *)

val prepare : workspace -> model -> unit
(** Fill the emission table, loss weights, active-state lists and
    transition copies for the model. *)

val forward : workspace -> model -> tt:int -> float
(** Scaled forward recursion over [[0, tt)] from pi; returns the
    log-likelihood.
    @raise Zero_likelihood on an impossible observation. *)

val backward_estep : workspace -> model -> tt:int -> unit
(** The scaled backward recursion over [[0, tt)] from the all-ones seed,
    fused with the E-step: clears the accumulators and fills [xi],
    [gamma_sum], [count_obs] and [count_loss] in the same descending-time
    pass, forming each transition product once for both [beta] and [xi].
    Requires a completed {!forward} (true scales). *)
