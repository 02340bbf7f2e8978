(* Pinned bit-level fingerprints of the serial EM path.

   Every figure below is an order-sensitive fold of the IEEE bit
   patterns ([Int64.bits_of_float]) of a result on one fixed simulated
   trace.  Any change to the floating-point association of the serial
   forward pass, the backward pass with its E-step statistics, or the
   M-step changes at least one
   fingerprint, so these pins are what show that a refactor of the EM
   kernel kept the serial arithmetic bit-for-bit.

   To re-derive after an intentional numerical change, run this test:
   a failure message prints the computed fingerprint next to the pinned
   one. *)

let trace_len = 4000

(* One fixed MMHD-generated probe trace (n = 2 hidden states, m = 5
   delay symbols, ~6% loss).  The first two entries are forced so the
   trace has both a loss and an observation at the start. *)
let trace =
  let rng = Stats.Rng.create 0xF1A9 in
  let truth = Mmhd.init_random rng ~n:2 ~m:5 ~loss_fraction:0.06 in
  let obs, _ = Mmhd.simulate rng truth ~len:trace_len in
  obs.(0) <- 1;
  obs.(1) <- 5;
  obs

let fold h x = Int64.add (Int64.mul h 1000003L) (Int64.bits_of_float x)
let fold_array h a = Array.fold_left fold h a

let fold_stats h (st : Em.fit_stats) =
  let h = fold h st.Em.log_likelihood in
  let h = Int64.add (Int64.mul h 31L) (Int64.of_int st.Em.iterations) in
  Int64.add (Int64.mul h 31L) (if st.Em.converged then 1L else 0L)

let check name pinned computed =
  Alcotest.(check string) name pinned (Printf.sprintf "%016Lx" computed)

let test_mmhd_fit () =
  let model, stats =
    Mmhd.fit ~restarts:2 ~rng:(Stats.Rng.create 21) ~n:2 ~m:5 trace
  in
  let h = fold_array 0L model.Em.pi in
  let h = fold_array h model.Em.a in
  let h = fold_array h model.Em.c in
  check "Mmhd.fit" "f64a62e7722927f1" (fold_stats h stats)

let test_hmm_fit () =
  let model, stats =
    Hmm.fit ~restarts:2 ~rng:(Stats.Rng.create 21) ~n:2 ~m:5 trace
  in
  let h = fold_array 0L model.Em.pi in
  let h = fold_array h model.Em.a in
  let h = fold_array h model.Em.b in
  let h = fold_array h model.Em.c in
  check "Hmm.fit" "3d011e7a94f07e21" (fold_stats h stats)

let informed () = Mmhd.init_informed (Stats.Rng.create 7) ~n:2 ~m:5 trace

let test_log_likelihood () =
  let ll = Em.log_likelihood ~ws:(Em.workspace ()) (informed ()) trace in
  check "Em.log_likelihood" "c0bab89c4bef3bdc" (fold 0L ll)

(* Three equal batches through one online-EM round each: decay, append
   (carrying the filtered end-distribution), M-step. *)
let test_incremental () =
  let ws = Em.workspace () in
  let model = informed () in
  let st = Em.Incremental.create ~s:model.Em.s ~m:model.Em.m in
  let batch = trace_len / 3 in
  let h = ref 0L in
  let model = ref model in
  for k = 0 to 2 do
    Em.Incremental.decay st ~lambda:0.9;
    let ll =
      Em.Incremental.append ~ws st !model (Array.sub trace (k * batch) batch)
    in
    h := fold !h ll;
    model := Em.Incremental.m_step st !model
  done;
  let h = fold_array !h !model.Em.pi in
  let h = fold_array h !model.Em.a in
  let h = fold_array h !model.Em.c in
  let h = fold_array h (Em.Incremental.xi st) in
  let h = fold_array h (Em.Incremental.gamma_sum st) in
  let h = fold_array h (Em.Incremental.count_obs st) in
  let h = fold_array h (Em.Incremental.count_loss st) in
  let h = fold_array h (Em.Incremental.filtered_end st) in
  let h = fold h (Em.Incremental.weight st) in
  let h = fold h (Em.Incremental.log_likelihood st) in
  check "Em.Incremental" "a942280c08101763" h

(* [Em.fit_from] on a random HMM start that the SQUAREM cycle rejects
   often: seed 1 of the random 2-state, 3-symbol HMM family of
   test_em's fallback test, run at the default eps and sweep cap.  The
   fit falls back to the plain step 17 times, so the pin covers the
   rejected-candidate path: its sweep count and the fitted bits. *)
let test_fallback_fit () =
  let rng = Stats.Rng.create 1 in
  let obs, _ =
    Hmm.simulate rng (Hmm.init_random rng ~n:2 ~m:3 ~loss_fraction:0.1) ~len:200
  in
  let t0 = Hmm.init_random rng ~n:2 ~m:3 ~loss_fraction:0.1 in
  let fallbacks = Obs.Counter.make "dcl_em_squarem_fallbacks_total" in
  let before = Obs.Counter.value fallbacks in
  Obs.set_enabled true;
  let model, stats =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () -> Em.fit_from ~ws:(Em.workspace ()) ~update_b:true t0 obs)
  in
  Alcotest.(check bool) "at least 3 fallbacks" true
    (Obs.Counter.value fallbacks -. before >= 3.);
  let h = fold_array 0L model.Em.pi in
  let h = fold_array h model.Em.a in
  let h = fold_array h model.Em.b in
  let h = fold_array h model.Em.c in
  check "Em.fit_from fallbacks" "9d2e6af617119a85" (fold_stats h stats)

(* The symbol trace as a probe trace: symbol [j] becomes an end-end
   delay of 0.105 + 0.01 j seconds, a loss stays a loss. *)
let probe_trace =
  let interval = 0.02 in
  let records =
    Array.mapi
      (fun i j ->
        let obs =
          if j = 5 then Probe.Trace.Lost
          else Probe.Trace.Delay (0.105 +. (0.01 *. float_of_int j))
        in
        { Probe.Trace.send_time = float_of_int i *. interval; obs; truth = None })
      trace
  in
  Probe.Trace.create ~records ~interval ~base_delay:0.1 ~hop_count:3

(* [Identify.run] end to end for one parameter record: the VQD pmf, the
   conclusion, the winning fit's log-likelihood and sweep count. *)
let check_identify name pinned params =
  let r = Dcl.Identify.run ~params ~rng:(Stats.Rng.create 21) probe_trace in
  let h = fold_array 0L r.Dcl.Identify.vqd.Dcl.Vqd.pmf in
  let h =
    Int64.add (Int64.mul h 31L)
      (match r.Dcl.Identify.conclusion with
      | Dcl.Identify.Strongly_dominant -> 1L
      | Dcl.Identify.Weakly_dominant -> 2L
      | Dcl.Identify.No_dominant -> 3L)
  in
  let h = fold h r.Dcl.Identify.log_likelihood in
  let h = Int64.add (Int64.mul h 31L) (Int64.of_int r.Dcl.Identify.em_iterations) in
  check name pinned h

let test_identify_mmhd () =
  check_identify "Identify mmhd" "bf7340306bdd1a7e" Dcl.Identify.default_params

let test_identify_markov () =
  check_identify "Identify markov" "3dda522914d00805"
    { Dcl.Identify.default_params with n = 1 }

let test_identify_hmm () =
  check_identify "Identify hmm" "22ae69705e12e6b7"
    { Dcl.Identify.default_params with model = Dcl.Identify.Model_hmm }

let () =
  Alcotest.run "em_fingerprint"
    [
      ( "serial fingerprint",
        [
          Alcotest.test_case "Mmhd.fit restarts=2" `Quick test_mmhd_fit;
          Alcotest.test_case "Hmm.fit restarts=2" `Quick test_hmm_fit;
          Alcotest.test_case "Em.log_likelihood" `Quick test_log_likelihood;
          Alcotest.test_case "Em.Incremental 3 batches" `Quick test_incremental;
          Alcotest.test_case "Identify.run mmhd" `Quick test_identify_mmhd;
          Alcotest.test_case "Identify.run markov" `Quick test_identify_markov;
          Alcotest.test_case "Identify.run hmm" `Quick test_identify_hmm;
          Alcotest.test_case "Em.fit_from fallbacks" `Quick test_fallback_fit;
        ] );
    ]
