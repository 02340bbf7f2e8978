(* dcl-pathchar: run a pathchar-style per-hop capacity estimation over
   one of the built-in wide-area scenarios — the cross-validation step
   of the paper's Internet experiments, as a standalone tool.

     dcl-pathchar --scenario inet-adsl-snu *)

open Cmdliner

let kinds =
  [
    ("inet-ufpr", Scenarios.Internet.Ethernet_ufpr);
    ("inet-adsl-ufpr", Scenarios.Internet.Adsl_from_ufpr);
    ("inet-adsl-usevilla", Scenarios.Internet.Adsl_from_usevilla);
    ("inet-adsl-snu", Scenarios.Internet.Adsl_from_snu);
  ]

let run kind seed duration metrics =
  Obs_cli.with_metrics metrics @@ fun () ->
  let o = Scenarios.Internet.run ~seed ~duration ~with_pathchar:true kind in
  Printf.printf "%s (%d hops), probing %.0f s\n"
    (Scenarios.Internet.kind_to_string kind)
    (Scenarios.Internet.hop_count kind)
    duration;
  match o.Scenarios.Internet.pathchar with
  | None ->
      (* Return instead of [exit]: exiting would skip the --metrics
         dump the surrounding [with_metrics] writes on the way out. *)
      prerr_endline "no pathchar result";
      1
  | Some r ->
      Array.iter
        (fun (h : Pathchar.hop) ->
          Printf.printf "hop %2d: %4d replies, capacity %s, latency %s%s\n"
            h.Pathchar.index h.Pathchar.replies
            (match h.Pathchar.capacity with
            | Some c -> Printf.sprintf "%7.2f Mb/s" (c /. 1e6)
            | None -> "      -     ")
            (match h.Pathchar.latency with
            | Some l -> Printf.sprintf "%5.1f ms" (1000. *. l)
            | None -> "   -   ")
            (if Some h.Pathchar.index = r.Pathchar.narrow_hop then "   <- narrow link"
             else ""))
        r.Pathchar.hops;
      Printf.printf
        "(ground truth: the congested link is hop %d%s)\n"
        (o.Scenarios.Internet.bottleneck_hop + 1)
        (match o.Scenarios.Internet.secondary_hop with
        | Some h -> Printf.sprintf "; a second congested link is hop %d" (h + 1)
        | None -> "");
      0

let kind_arg =
  let doc =
    Printf.sprintf "Wide-area scenario: %s." (String.concat ", " (List.map fst kinds))
  in
  Arg.(
    required & opt (some (enum kinds)) None & info [ "s"; "scenario" ] ~docv:"NAME" ~doc)

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let duration_arg =
  Arg.(
    value
    & opt (Obs_cli.positive_float ~what:"--duration") 120.
    & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc:"Simulation duration.")

let cmd =
  let doc = "per-hop capacity estimation (pathchar) over an emulated wide-area path" in
  Cmd.v (Cmd.info "dcl-pathchar" ~doc)
    Term.(const run $ kind_arg $ seed_arg $ duration_arg $ Obs_cli.metrics_arg)

let () = exit (Cmd.eval' cmd)
