(** The paper's named scenarios (Section VI): the ns topology of
    Fig. 4 under Tables II–IV and adaptive RED (Figs. 10–11), and the
    emulated wide-area paths of Figs. 12–13.  Every tool, bench and
    pin that runs a scenario by name reads this one list.  Seed and
    duration stay with the caller, whose defaults differ. *)

type source =
  | Topology of (seed:int -> duration:float -> Paper_topology.config)
  | Path of Internet.kind

type entry = { name : string; source : source }

val all : entry list
(** [table2-strongly] (L3 at the first Table II bandwidth),
    [table3-weakly], [table4-nodcl], [red-weakly] (the weakly preset
    under adaptive RED with [min_th] at 1/5 of the buffer),
    [cornell-ufpr], [ufpr-adsl], [usevilla-adsl], [snu-adsl]. *)

val find : string -> entry
(** The entry of that name.  Raises [Invalid_argument] on an unknown
    name. *)
