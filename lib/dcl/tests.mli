(** The paper's two hypothesis tests (Section IV-A, Figs. 2 and 3),
    operating on the discretized virtual queuing delay distribution.

    Let [d*] be the smallest symbol with [F at d* >= 1/2] (symbols are
    1-based in the statements below, matching the paper).

    - SDCL-Test (Theorem 1): under the null hypothesis that a strongly
      dominant congested link exists, [F at 2*d_star = 1].  Reject when
      [F at 2*d_star < 1 - tolerance].
    - WDCL-Test (Theorem 2): under the null hypothesis that a weakly
      dominant congested link with parameters [(beta, eps)] exists,
      [F at 2*d_star >= (1 - beta) * (1 - eps)].  Reject when it falls short
      by more than [tolerance].

    [tolerance] absorbs estimation noise in [F] (the paper accepts
    e.g. [F = 0.97 >= 0.94] and implicitly treats 1 as "1 within
    estimation error").  A direct call gets tolerance 0.005 for either
    test; {!Identify.conclude} runs SDCL at 0.005 but WDCL at 0.04, to
    absorb the model-based [F]'s downward bias. *)

type verdict = Accept | Reject

type outcome = {
  verdict : verdict;
  d_star : int;  (** 1-based symbol [d*] *)
  two_d_star : int;  (** 1-based symbol [2*d_star] (may exceed [m]) *)
  f_at_two_d_star : float;  (** [F at 2*d_star], 1 when [2 d* > m] *)
  threshold : float;  (** acceptance threshold on [F at 2*d_star] *)
}

val sdcl : ?tolerance:float -> Vqd.t -> outcome
(** Test for a strongly dominant congested link. *)

val wdcl : ?tolerance:float -> beta:float -> eps:float -> Vqd.t -> outcome
(** Test for a weakly dominant congested link with parameters
    [(beta, eps)]; requires [0 <= beta < 1/2] and [0 <= eps <= 1]. *)

val pp_outcome : Format.formatter -> outcome -> unit
