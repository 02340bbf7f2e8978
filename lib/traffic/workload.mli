(** Closed-loop application workloads layered over {!Tcp}: greedy FTP
    transfers and an HTTP-like session model (the paper's "FTP and
    HTTP traffic generated using the empirical data provided by ns" is
    approximated by Poisson sessions fetching Pareto-sized objects with
    exponential think times — the standard web-workload shape). *)

val ftp : Netsim.Net.t -> src:int -> dst:int -> Tcp.t
(** An unlimited TCP source.  Call {!Tcp.start} (or use {!ftp_at}). *)

val ftp_at : Netsim.Net.t -> src:int -> dst:int -> at:float -> Tcp.t
(** FTP starting at absolute time [at]. *)

type http

val http : Netsim.Net.t -> src:int -> dst:int -> session_rate:float -> http
(** HTTP-like workload from [src] to [dst]: sessions arrive as a
    Poisson process of rate [session_rate] per second; each session
    fetches 5 objects in sequence, each a fresh TCP connection
    transferring a Pareto(1.3) number of segments (at least 2, capped
    at 500), with exponential think times (mean 1 s) between
    objects. *)

val http_start : http -> unit
val http_pages_completed : http -> int
val http_sessions_started : http -> int
