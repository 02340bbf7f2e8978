type source =
  | Topology of (seed:int -> duration:float -> Paper_topology.config)
  | Path of Internet.kind

type entry = { name : string; source : source }

let topology name config = { name; source = Topology config }
let path name kind = { name; source = Path kind }

let all =
  [
    topology "table2-strongly" (fun ~seed ~duration ->
        Presets.strongly_dcl ~seed ~duration ~bw3:(List.hd Presets.strongly_dcl_sweep) ());
    topology "table3-weakly" (fun ~seed ~duration -> Presets.weakly_dcl ~seed ~duration ());
    topology "table4-nodcl" (fun ~seed ~duration -> Presets.no_dcl ~seed ~duration ());
    topology "red-weakly" (fun ~seed ~duration ->
        Presets.with_red ~min_th_frac:0.2 (Presets.weakly_dcl ~seed ~duration ()));
    path "cornell-ufpr" Internet.Ethernet_ufpr;
    path "ufpr-adsl" Internet.Adsl_from_ufpr;
    path "usevilla-adsl" Internet.Adsl_from_usevilla;
    path "snu-adsl" Internet.Adsl_from_snu;
  ]

let find name =
  match List.find_opt (fun e -> e.name = name) all with
  | Some e -> e
  | None -> invalid_arg ("Catalogue.find: no scenario " ^ name)
