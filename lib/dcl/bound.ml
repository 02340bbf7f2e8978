let sdcl_bound vqd =
  Discretize.queuing_value vqd.Vqd.scheme (Vqd.quantile_symbol vqd 0.5)

let wdcl_bound ~beta vqd =
  if beta < 0. || beta >= 0.5 then invalid_arg "Bound.wdcl_bound: beta must be in [0, 1/2)";
  let m = Array.length vqd.Vqd.cdf in
  let rec find j =
    if j >= m - 1 || Stats.Float_cmp.gt (Vqd.cdf_at vqd j) beta then j else find (j + 1)
  in
  Discretize.queuing_value vqd.Vqd.scheme (find 0)

(* A symbol belongs to a component when its probability exceeds this. *)
let mass_threshold = 0.005

let components vqd =
  let pmf = vqd.Vqd.pmf in
  let m = Array.length pmf in
  let runs = ref [] in
  let start = ref None in
  let mass = ref 0. in
  let close last =
    match !start with
    | Some first ->
        runs := (first, last, !mass) :: !runs;
        start := None;
        mass := 0.
    | None -> ()
  in
  for j = 0 to m - 1 do
    if Stats.Float_cmp.gt pmf.(j) mass_threshold then begin
      if !start = None then start := Some j;
      mass := !mass +. pmf.(j)
    end
    else close (j - 1)
  done;
  close (m - 1);
  List.rev !runs

let component_bound vqd =
  match components vqd with
  | [] -> sdcl_bound vqd
  | runs ->
      let first, _, _ =
        List.fold_left
          (fun ((_, _, best_mass) as best) ((_, _, mass) as run) ->
            if Stats.Float_cmp.gt mass best_mass then run else best)
          (List.hd runs) (List.tl runs)
      in
      Discretize.queuing_value vqd.Vqd.scheme first
