(* Clock, order statistics, process and Obs readings, and the JSON
   output helpers shared by the workloads. *)

let now_ns = Obs.Span.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9
let ns_to_s ns = float_of_int ns *. 1e-9

(* Linear interpolation between closest ranks (numpy's default rule). *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = min (n - 1) (int_of_float pos) in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = if xs = [] then nan else sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* High-water resident set of this process, MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> nan
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

type gc = { minor_words : float; major_collections : int }

let gc () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

(* Obs readers.  The registry is idempotent per name and labels, so
   these return the metrics the libraries registered. *)
let counter name = Obs.Counter.value (Obs.Counter.make name)
let gauge name = Obs.Gauge.value (Obs.Gauge.make name)
let histogram_sum ?labels name = Obs.Histogram.sum (Obs.Histogram.make ?labels name)

(* A hypothesis-test outcome whose statistics are all finite. *)
let finite_outcome (o : Dcl.Tests.outcome) =
  Float.is_finite o.Dcl.Tests.f_at_two_d_star && Float.is_finite o.Dcl.Tests.threshold

(* Every metric value goes out with all its digits. *)
let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* What a workload hands back to perfbench.ml.  Metric lists are keyed by
   the names of BENCHMARK.json; [env] is printed verbatim as JSON. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;
  env : (string * string) list;
}

let out_dir = Filename.concat "perfbench" "out"

(* Write the benchmark's spans and the library's Obs.Trace window side
   by side, as Chrome trace-event JSON. *)
let write_traces ~base spans_json =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  List.iter
    (fun (suffix, contents) ->
      let path = Filename.concat out_dir (base ^ suffix) in
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents);
      Printf.printf "wrote %s\n" path)
    [ (".spans.json", spans_json); (".obs-trace.json", Obs.Trace.chrome_json ()) ]
