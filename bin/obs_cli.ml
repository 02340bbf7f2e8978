(* Shared command-line plumbing for the dcl tools: validated argument
   converters, and the optional --metrics / --trace flags that turn
   collection on for the whole run and dump a registry snapshot /
   flight-recorder dump on exit. *)

open Cmdliner

(* --- validated argument converters ---------------------------------

   Out-of-range values are rejected at the cmdliner layer (exit code
   124 with a usage message) instead of surfacing later as an
   [Invalid_argument] backtrace from the library, a NaN threshold, or a
   vacuous verdict. *)

let int_at_least floor =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
    | Some v when v < floor ->
        Error (`Msg (Printf.sprintf "%d is below the minimum of %d" v floor))
    | Some v -> Ok v
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let positive_int = int_at_least 1

(* [lo, hi] by default; either end can be made open. *)
let float_range ?(lo_exclusive = false) ?(hi_exclusive = false) ~lo ~hi ~what () =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected a number, got %S" s))
    | Some v ->
        if Float.is_nan v then Error (`Msg (Printf.sprintf "%s cannot be NaN" what))
        else if
          (if lo_exclusive then Stats.Float_cmp.leq v lo
           else Stats.Float_cmp.lt v lo)
          || (if hi_exclusive then Stats.Float_cmp.geq v hi
              else Stats.Float_cmp.gt v hi)
        then
          Error
            (`Msg
               (Printf.sprintf "%g is outside %c%g, %g%c for %s" v
                  (if lo_exclusive then '(' else '[')
                  lo hi
                  (if hi_exclusive then ')' else ']')
                  what))
        else Ok v
  in
  Arg.conv ~docv:"X" (parse, Format.pp_print_float)

(* A finite number above zero: durations, bandwidths. *)
let positive_float ~what =
  float_range ~lo_exclusive:true ~hi_exclusive:true ~lo:0. ~hi:infinity ~what ()

let nonneg_float ~what =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected a number, got %S" s))
    | Some v ->
        if Float.is_finite v && Stats.Float_cmp.geq v 0. then Ok v
        else
          Error
            (`Msg (Printf.sprintf "%s must be finite and non-negative, got %s" what s))
  in
  Arg.conv ~docv:"X" (parse, Format.pp_print_float)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect runtime metrics and write a Prometheus text snapshot on exit: \
           $(b,-) prints it to stdout, any other path is the file to write.  \
           Collection can also be enabled without a dump by setting \
           $(b,DCL_OBS=1) in the environment.")

(* Run [f] with collection enabled when a dump was requested, and write
   the snapshot afterwards.  The snapshot is written even when [f]
   raises mid-pipeline — partial metrics are exactly what one wants
   when diagnosing the failure. *)
let with_metrics dest f =
  match dest with
  | None -> f ()
  | Some d ->
      Obs.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.write d) f

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record flight-recorder trace events and write them on exit: a path \
           ending in $(b,.json) writes Chrome trace-event JSON (loadable in \
           Perfetto), $(b,-) prints the sorted text dump to stdout, any other \
           path writes the text dump.  Tracing can also be enabled without a \
           dump by setting $(b,DCL_TRACE=1) in the environment.")

(* Same shape as [with_metrics]: the dump is written even when [f]
   raises — the flight recorder exists for exactly that post-mortem. *)
let with_trace dest f =
  match dest with
  | None -> f ()
  | Some d ->
      Obs.Trace.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.Trace.write d) f
