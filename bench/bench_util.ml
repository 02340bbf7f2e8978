(* Shared plumbing for the experiment harness: table rendering, PMF
   bar plots, and the shape-claim checklist that every experiment
   registers its assertions with. *)

let printf = Printf.printf

let section title =
  printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = printf "\n--- %s ---\n" title

(* --- shape-claim checklist --------------------------------------------- *)

let claims : (string * bool) list ref = ref []

let claim name ok =
  claims := (name, ok) :: !claims;
  printf "  [%s] %s\n" (if ok then "ok" else "FAILED") name

let claims_summary () =
  let all = List.rev !claims in
  let failed = List.filter (fun (_, ok) -> not ok) all in
  section "Shape-claim summary";
  printf "%d claims checked, %d failed\n" (List.length all) (List.length failed);
  List.iter (fun (name, _) -> printf "  FAILED: %s\n" name) failed;
  List.length failed = 0

(* --- rendering ----------------------------------------------------------- *)

let ms x = x *. 1000.

let bar p =
  let width = int_of_float (40. *. p +. 0.5) in
  String.make width '#'

let print_pmf ~label (pmf : float array) =
  printf "  %-14s" label;
  Array.iteri (fun j p -> if p > 0.0005 then printf " %d:%.3f" (j + 1) p) pmf;
  printf "\n"

let print_pmf_bars ~label (pmf : float array) =
  printf "  %s\n" label;
  Array.iteri (fun j p -> printf "    %2d | %-40s %.3f\n" (j + 1) (bar p) p) pmf

let verdict_to_string = function Dcl.Tests.Accept -> "accept" | Dcl.Tests.Reject -> "reject"

let conclusion_short = function
  | Dcl.Identify.Strongly_dominant -> "strong"
  | Dcl.Identify.Weakly_dominant -> "weak"
  | Dcl.Identify.No_dominant -> "none"

(* Simple aligned table printing. *)
let print_table header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> Stdlib.max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    printf "  ";
    List.iteri (fun c cell -> printf "%-*s  " (List.nth widths c) cell) row;
    printf "\n"
  in
  print_row header;
  printf "  %s\n" (String.concat "" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter print_row rows

(* --- analysis helpers ---------------------------------------------------- *)

(* Identification with the paper's defaults, plus a second fine-grained
   (M = 40) fit for the Q_max bound, as Section VI-A does. *)
let identify_with_fine_bound ?(params = Dcl.Identify.default_params) ~seed trace =
  let rng = Stats.Rng.create seed in
  let result = Dcl.Identify.run ~params ~rng trace in
  let fine_bound =
    match result.Dcl.Identify.conclusion with
    | Dcl.Identify.No_dominant -> None
    | Dcl.Identify.Strongly_dominant | Dcl.Identify.Weakly_dominant -> (
        try
          let fine = { params with Dcl.Identify.m = 40 } in
          let vqd40, _ = Dcl.Identify.fit_vqd ~params:fine ~rng trace in
          Some (Dcl.Bound.component_bound vqd40)
        with Invalid_argument _ | Failure _ -> None)
  in
  (result, fine_bound)

(* Observed (surviving-probe) queuing delay PMF over a scheme — the
   paper's "observed" curve in Fig. 5. *)
let observed_pmf scheme trace =
  let counts = Array.make scheme.Dcl.Discretize.m 0. in
  Array.iter
    (fun d ->
      let j = Dcl.Discretize.symbol_of_delay scheme d in
      counts.(j) <- counts.(j) +. 1.)
    (Probe.Trace.observed_delays trace);
  (Dcl.Vqd.of_pmf scheme counts).Dcl.Vqd.pmf

(* Fraction of [reps] random [duration]-second segments of [trace] whose
   identification agrees with [expected] (Fig. 9 / Fig. 14 protocol).
   Unidentifiable segments (no loss) count as failures. *)
let correct_ratio ?(params = Dcl.Identify.default_params) ~seed ~reps ~duration ~expected
    trace =
  let rng = Stats.Rng.create seed in
  let hits = ref 0 in
  for _ = 1 to reps do
    let segment = Probe.Trace.random_segment rng trace ~duration in
    if Dcl.Identify.identifiable segment then begin
      let r = Dcl.Identify.run ~params ~rng segment in
      if r.Dcl.Identify.conclusion = expected then incr hits
    end
  done;
  float_of_int !hits /. float_of_int reps

(* Like [correct_ratio], but the per-segment criterion is the WDCL
   verdict alone (the paper's Fig. 14 consistency notion: segments are
   consistent when they accept/reject the weakly-dominant hypothesis
   like the full trace does). *)
let consistency_ratio_wdcl ?(params = Dcl.Identify.default_params) ~seed ~reps ~duration
    ~expected trace =
  let rng = Stats.Rng.create seed in
  let hits = ref 0 in
  for _ = 1 to reps do
    let segment = Probe.Trace.random_segment rng trace ~duration in
    if Dcl.Identify.identifiable segment then begin
      let r = Dcl.Identify.run ~params ~rng segment in
      if r.Dcl.Identify.wdcl.Dcl.Tests.verdict = expected then incr hits
    end
  done;
  float_of_int !hits /. float_of_int reps

(* Dominant symbol of a distribution: (1-based symbol, mass). *)
let peak (vqd : Dcl.Vqd.t) =
  let best = ref 0 in
  Array.iteri (fun j p -> if p > vqd.Dcl.Vqd.pmf.(!best) then best := j) vqd.Dcl.Vqd.pmf;
  (!best + 1, vqd.Dcl.Vqd.pmf.(!best))
