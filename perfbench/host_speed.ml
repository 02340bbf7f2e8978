(* Host-speed probe.  The machine this benchmark runs on is a share of
   a busy host: the same fixed computation takes up to three times as
   long from one second to the next, in phases that last minutes.  A
   probe timed right before and right after an op estimates how fast
   the host ran during it, and op times are rescaled to a fixed
   reference speed.

   The probe is a scaled forward recursion over a fixed 10-state chain
   (the same kind of arithmetic as the EM sweeps it stands beside).  It
   lives here, not in the libraries, so no change to the code under
   test can change its cost.  Its buffers fit in L2, so an op's cache
   footprint barely touches it. *)

let states = 10
let length = 1024
let sweeps = 32

(* The probe's time at the host's fast phase on the 2-vCPU Xeon
   (2.1 GHz) this benchmark was written on.  A rescaled time reads as
   seconds at that speed; comparisons between two builds on one host do
   not depend on this value. *)
let reference_s = 0.004

type t = {
  trans : float array;  (** states x states, row-stochastic *)
  emit : float array;  (** states x 8 symbols *)
  obs : int array;
  alpha : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
}

let create () =
  let rng = Stats.Rng.create 7 in
  let row n =
    let r = Array.init n (fun _ -> 0.05 +. Stats.Rng.float rng) in
    let s = Array.fold_left ( +. ) 0. r in
    Array.map (fun x -> x /. s) r
  in
  {
    trans = Array.concat (List.init states (fun _ -> row states));
    emit = Array.concat (List.init states (fun _ -> row 8));
    obs = Array.init length (fun _ -> Stats.Rng.int rng 8);
    alpha = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (length * states);
  }

(* One sweep; returns the log-likelihood so the work cannot be elided. *)
let sweep p =
  let a = p.alpha in
  let ll = ref 0. in
  for s = 0 to states - 1 do
    Bigarray.Array1.unsafe_set a s (p.emit.((s * 8) + p.obs.(0)) /. float_of_int states)
  done;
  for t = 1 to length - 1 do
    let o = p.obs.(t) and prev = (t - 1) * states and row = t * states in
    let total = ref 0. in
    for s = 0 to states - 1 do
      let acc = ref 0. in
      for q = 0 to states - 1 do
        acc := !acc +. (Bigarray.Array1.unsafe_get a (prev + q) *. p.trans.((q * states) + s))
      done;
      let v = !acc *. p.emit.((s * 8) + o) in
      Bigarray.Array1.unsafe_set a (row + s) v;
      total := !total +. v
    done;
    for s = 0 to states - 1 do
      Bigarray.Array1.unsafe_set a (row + s) (Bigarray.Array1.unsafe_get a (row + s) /. !total)
    done;
    ll := !ll +. log !total
  done;
  !ll

(* Seconds the probe takes now. *)
let measure p =
  let t0 = Measure.now_ns () in
  let ll = ref 0. in
  for _ = 1 to sweeps do
    ll := !ll +. sweep p
  done;
  let dt = Measure.seconds_since t0 in
  if not (Float.is_finite !ll) then failwith "host_speed: non-finite probe sweep";
  dt

(* An interval of [dt] seconds at the reference speed, where [probe] is
   the mean of the probes taken right before and right after it. *)
let rescale (dt, probe) = dt *. reference_s /. probe

(* The mean of repeated intervals of the same work, at the reference
   speed: total time over total probe time.  A ratio of sums weights
   each repeat by its length, so a long op that straddles a phase change
   counts no more than its share. *)
let mean_at_reference intervals =
  let dt, probe = List.fold_left (fun (d, p) (d', p') -> (d +. d', p +. p')) (0., 0.) intervals in
  reference_s *. dt /. probe
