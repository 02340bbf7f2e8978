(** Hot state and whole-sequence kernels for the shared EM sweep
    (library-internal; the public surface is {!Em}).

    The workspace record is exposed transparently so {!Em}'s M-step and
    posterior extractors can read the sweep buffers without a forest of
    accessors.  [alpha] and [beta] are compact: row [t] holds
    [act_len.(cls.(t))] values, one per state of its class's active
    list ([act] from [cls.(t) * s]) in that list's order, and the rows
    are packed in time order, so row [0] starts at offset [0] and row
    [T - 1] at [total - act_len.(cls.(T - 1))]. *)

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
  mutable alpha : float array;
  mutable beta : float array;
  mutable scale : float array;
  mutable cls : int array;
  mutable cls_count : int array;
  mutable total : int;
  mutable e_all : float array;
  mutable w : float array;
  mutable act : int array;
  mutable act_len : int array;
  mutable xi : float array;
  mutable gamma_sum : float array;
  mutable count_obs : float array;
  mutable count_loss : float array;
  mutable tmp : float array;
  mutable cap_t : int;
  mutable cap_s : int;
  mutable cap_m : int;
}

val create : unit -> workspace
(** A fresh (empty) workspace. *)

val reserve : workspace -> tt:int -> s:int -> m:int -> unit
(** Grow (never shrink) every buffer for a [tt]-step sweep of an
    [s]-state, [m]-symbol model.  Amortized allocation-free on reuse. *)

val reject_symbols : who:string -> m:int -> int array -> unit
(** Raises [Invalid_argument] (prefixed by [who]) naming the time index
    of the first class outside [\[0, m\]]; returns if there is none.
    The slow path of the range test in {!classify} and
    [Em.check_symbols]. *)

val classify : workspace -> model -> int array -> unit
(** Point [cls] at the observations (symbol [j], or [m] for a loss; no
    copy) and count each class in [cls_count].  Raises
    [Invalid_argument] naming the time index of the first class outside
    [\[0, m\]].  The classes depend on the observations and [m] only,
    so a fit classifies once and then only {!prepare}s each sweep's
    model; the array must not change while the workspace sweeps it. *)

val prepare : workspace -> model -> unit
(** Fill the emission table, loss weights and active-state lists for
    the model, and set [total], the live length of the compact [alpha]
    and [beta] (the sum over classes of count times active-list
    length).  Requires a {!classify} of the sequence. *)

val forward : workspace -> model -> tt:int -> unit
(** Lazily scaled forward recursion over [[0, tt)] from pi, reading the
    model's [pi] and [a] directly: fills the compact [alpha] (ascending
    offsets from [0]) and [scale].  Row [t] is normalized (its sum in
    [scale.(t)]) only at [0], at [tt - 1] and below 2{^-256}; elsewhere
    [scale.(t)] is 1.  A row sum below 2{^-512} restarts the pass with
    every row normalized (per-step scaling), and only that pass raises
    [Zero_likelihood].
    It takes no logarithm; {!log_likelihood} does, for the callers that
    read the likelihood.
    @raise Zero_likelihood on an impossible observation. *)

val log_likelihood : workspace -> tt:int -> float
(** The log-likelihood of the last {!forward} pass over [[0, tt)]: the
    sum of its log scales other than 1, added in ascending time.  Valid
    until the next forward pass overwrites [scale]; {!backward_estep}
    leaves it intact. *)

val backward_estep : workspace -> model -> tt:int -> unit
(** The scaled backward recursion over [[0, tt)] from the all-ones seed,
    walking the compact [beta] down from its last row, fused with the
    E-step: clears the accumulators and fills [xi], [gamma_sum],
    [count_obs] and [count_loss] in the same descending-time pass,
    forming each transition product once for both [beta] and [xi].
    Requires a completed {!forward} (true scales). *)
