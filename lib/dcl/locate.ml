type prefix = {
  hops : int;
  conclusion : Identify.conclusion option;
  loss_rate : float;
}

let dominant = function
  | Some Identify.Strongly_dominant | Some Identify.Weakly_dominant -> true
  | Some Identify.No_dominant | None -> false

let pinpoint prefixes =
  let sorted = List.sort (fun a b -> compare a.hops b.hops) prefixes in
  (* Find the smallest prefix from which every result is dominant. *)
  let rec scan acc = function
    | [] -> acc
    | p :: rest ->
        if dominant p.conclusion then
          let acc = match acc with Some _ -> acc | None -> Some p.hops in
          scan acc rest
        else scan None rest
  in
  match scan None sorted with
  | Some h ->
      (* Sanity: the longest prefix must itself be dominant (scan
         guarantees it) and there must be at least one measurement. *)
      Some h
  | None -> None

let analyze ~rng traces =
  let prefixes =
    List.map
      (fun (hops, trace) ->
        let conclusion, loss_rate =
          if Identify.identifiable trace then begin
            let r = Identify.run ~rng trace in
            (Some r.Identify.conclusion, r.Identify.loss_rate)
          end
          else (None, Probe.Trace.loss_rate trace)
        in
        { hops; conclusion; loss_rate })
      traces
  in
  (prefixes, pinpoint prefixes)
