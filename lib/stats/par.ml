let map_range ~domains n f =
  if n <= 0 then [||]
  else
    let domains = max 1 (min domains n) in
    if domains = 1 then Array.init n f
    else begin
      let results = Array.make n None in
      Pool.run ~participants:domains n (fun i -> results.(i) <- Some (f i));
      Array.map (function Some x -> x | None -> assert false) results
    end
