(** Bounded per-path diagnosis history.

    Each {!Path_state.t} retains a fixed-capacity overwrite-oldest ring
    of diagnosis events — verdict updates, gate transitions with their
    cause, zero-likelihood resets — queryable after (or during) a run:
    the data behind [dcl-fleetd]'s [/paths/:id] route and the verdict
    history tomography fusion will consume.

    Not synchronized: a timeline is appended to by whichever domain
    currently owns the path (pool workers during the update fan-out,
    the driver for gate events between pool jobs), and those phases
    never overlap. *)

type entry =
  | Update of {
      epoch : int;
      verdict : Dcl.Identify.conclusion option;
      log_likelihood : float;
      weight : float;
      bound : float option;
    }  (** One online-EM epoch: the re-test outcome and its evidence. *)
  | Gate of { epoch : int; promoted : bool; cause : string; streak : int }
      (** A promotion ([promoted = true]) or demotion, with the signal
          that caused it ({!Sketch.Gate.cause_name}, or ["calm"] for
          demotions) and the streak length that triggered it. *)
  | Reset of { epoch : int }
      (** A zero-likelihood degeneracy restarted the path. *)

type t

val create : capacity:int -> t
(** A ring retaining the last [capacity] entries; [capacity = 0]
    disables recording ({!record} becomes a no-op).  Raises
    [Invalid_argument] if negative. *)

val record : t -> entry -> unit

val entries : t -> entry list
(** Retained entries, oldest first. *)

val length : t -> int
(** Number of retained entries ([min total capacity]). *)

val total : t -> int
(** Entries ever recorded, including overwritten ones. *)

val capacity : t -> int

val to_json : t -> string
(** [{"total":_,"capacity":_,"entries":[...]}], entries oldest first.
    Non-finite floats (a pre-first-batch log-likelihood) and absent
    bounds are [null]. *)
