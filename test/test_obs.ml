(* Observability layer: exact counting under concurrency, histogram
   bucket-boundary semantics, snapshot determinism, and the
   zero-allocation disabled path. *)

let () = Stats.Pool.set_capacity 3

(* --- concurrent counting ------------------------------------------------ *)

(* Increments from pool workers and the caller must sum exactly: the
   sharded cells may split the count any way between domains, but the
   total is the number of increments, every time. *)
let concurrent_counter_sum =
  QCheck.Test.make ~name:"concurrent increments sum exactly" ~count:15
    QCheck.(pair (int_range 1 3_000) (int_range 1 4))
    (fun (n, domains) ->
      Obs.set_enabled true;
      let c = Obs.Counter.make "test_obs_concurrent_total" in
      let before = Obs.Counter.value c in
      Stats.Pool.run ~chunk:64 ~participants:domains n (fun i ->
          if i land 1 = 0 then Obs.Counter.incr c else Obs.Counter.add c 1);
      Obs.Counter.value c -. before = float_of_int n)

let concurrent_float_sum =
  QCheck.Test.make ~name:"concurrent float adds sum exactly" ~count:10
    (QCheck.int_range 1 2_000)
    (fun n ->
      Obs.set_enabled true;
      let c = Obs.Counter.make "test_obs_concurrent_float_total" in
      let before = Obs.Counter.value c in
      (* 0.25 is exactly representable, so the CAS accumulation admits
         no rounding and the check can be exact. *)
      Stats.Pool.run ~chunk:64 ~participants:4 n (fun _ -> Obs.Counter.add_float c 0.25);
      Obs.Counter.value c -. before = 0.25 *. float_of_int n)

(* --- histogram bucket boundaries ---------------------------------------- *)

(* Reference semantics: smallest [i] with [v <= uppers.(i)], overflow
   bucket at [Array.length uppers]. *)
let reference_index uppers v =
  let n = Array.length uppers in
  let rec go i = if i >= n || v <= uppers.(i) then i else go (i + 1) in
  go 0

let hist_counter = ref 0

let fresh_hist buckets =
  incr hist_counter;
  Obs.Histogram.make ~buckets
    (Printf.sprintf "test_obs_hist_%d_seconds" !hist_counter)

let bucket_index_matches_reference =
  QCheck.Test.make ~name:"bucket_index matches reference" ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 8) (float_range 0.001 100.))
        (float_range (-1.) 200.))
    (fun (raw, v) ->
      let uppers = List.sort_uniq compare raw |> Array.of_list in
      let h = fresh_hist uppers in
      Obs.Histogram.bucket_index h v = reference_index uppers v)

let test_bucket_boundaries () =
  let h = fresh_hist [| 1.; 2.; 5. |] in
  let check what v expect =
    Alcotest.(check int) what expect (Obs.Histogram.bucket_index h v)
  in
  (* Upper edges are inclusive (Prometheus [le] semantics): an
     observation exactly on a boundary lands in that bucket, the next
     representable float above it in the next one. *)
  check "below first" 0.5 0;
  check "on first edge" 1. 0;
  check "just above first edge" (Float.succ 1.) 1;
  check "on middle edge" 2. 1;
  check "interior" 3. 2;
  check "on last edge" 5. 2;
  check "overflow" 5.000001 3;
  check "negative" (-1.) 0;
  Obs.set_enabled true;
  Obs.Histogram.observe h 1.;
  Obs.Histogram.observe h (Float.succ 1.);
  Obs.Histogram.observe h 100.;
  Alcotest.(check int) "count" 3 (Obs.Histogram.count h);
  let cum = Obs.Histogram.bucket_counts h in
  Alcotest.(check int) "cumulative le=1" 1 (snd cum.(0));
  Alcotest.(check int) "cumulative le=2" 2 (snd cum.(1));
  Alcotest.(check int) "cumulative le=5" 2 (snd cum.(2));
  Alcotest.(check int) "cumulative +Inf" 3 (snd cum.(3));
  Alcotest.(check bool) "+Inf upper bound" true (fst cum.(3) = infinity)

(* --- snapshot determinism ----------------------------------------------- *)

let test_snapshot_determinism () =
  Obs.set_enabled true;
  let c = Obs.Counter.make ~help:"snapshot test" "test_obs_snap_total" in
  Obs.Counter.add c 3;
  let g = Obs.Gauge.make "test_obs_snap_gauge" in
  Obs.Gauge.set g 1.5;
  let h = fresh_hist [| 0.1; 1. |] in
  Obs.Histogram.observe h 0.05;
  let p1 = Obs.prometheus () in
  let p2 = Obs.prometheus () in
  Alcotest.(check string) "two prometheus dumps identical" p1 p2;
  (* The dump carries the recorded values, not just the names. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter line present" true
    (contains p1 "test_obs_snap_total 3");
  Alcotest.(check bool) "gauge line present" true
    (contains p1 "test_obs_snap_gauge 1.5")

(* --- disabled path ------------------------------------------------------ *)

let test_disabled_span_allocates_nothing () =
  Obs.set_enabled false;
  let h = fresh_hist [| 0.1; 1. |] in
  let c = Obs.Counter.make "test_obs_disabled_total" in
  let spans = 100_000 in
  for _ = 1 to 64 do
    Obs.Span.stop h (Obs.Span.start ())
  done;
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to spans do
    let t0 = Obs.Span.start () in
    Obs.Counter.incr c;
    Obs.Span.stop h t0
  done;
  let per_span = (Gc.allocated_bytes () -. a0) /. float_of_int spans in
  (* Gc.allocated_bytes boxes its own float result, hence the sub-byte
     slack instead of an exact zero. *)
  Alcotest.(check bool)
    (Printf.sprintf "0 bytes per disabled span (measured %.4f)" per_span)
    true (per_span < 0.01);
  Alcotest.(check int) "nothing recorded while disabled" 0
    (Obs.Histogram.count h);
  Alcotest.(check (float 0.)) "counter untouched while disabled" 0.
    (Obs.Counter.value c)

(* --- prometheus label escaping ------------------------------------------ *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i + m <= n do
      if String.sub s !i m = sub then found := true else incr i
    done;
    !found
  end

(* Every value of label [v] on [metric] in a Prometheus text dump,
   unescaped.  The scanner is escape-aware, so a label value that
   itself contains a quote-brace sequence cannot end the scan early. *)
let scan_label_values dump metric =
  let prefix = metric ^ "{v=\"" in
  let pl = String.length prefix and n = String.length dump in
  let out = ref [] in
  let i = ref 0 in
  while !i + pl <= n do
    if String.sub dump !i pl = prefix then begin
      let b = Buffer.create 16 in
      let j = ref (!i + pl) in
      let fin = ref false in
      while (not !fin) && !j < n do
        match dump.[!j] with
        | '\\' when !j + 1 < n ->
            (match dump.[!j + 1] with
            | 'n' -> Buffer.add_char b '\n'
            | c -> Buffer.add_char b c);
            j := !j + 2
        | '"' ->
            fin := true;
            incr j
        | c ->
            Buffer.add_char b c;
            incr j
      done;
      out := Buffer.contents b :: !out;
      i := !j
    end
    else incr i
  done;
  !out

(* Escaping round-trip: a hostile label value (quotes, backslashes,
   newlines) survives a Prometheus dump intact once the dump's own
   escaping is undone — and never breaks the line structure. *)
let prometheus_label_roundtrip =
  QCheck.Test.make ~name:"prometheus label values escape round-trip" ~count:100
    (QCheck.string_gen_of_size
       (QCheck.Gen.int_range 0 12)
       (QCheck.Gen.oneofl
          [ 'a'; 'z'; '0'; '"'; '\\'; '\n'; '\t'; ' '; '{'; '}'; '='; ',' ]))
    (fun s ->
      Obs.set_enabled true;
      let c = Obs.Counter.make ~labels:[ ("v", s) ] "test_obs_escape_total" in
      Obs.Counter.incr c;
      List.mem s (scan_label_values (Obs.prometheus ()) "test_obs_escape_total"))

(* --- JSON exporters ------------------------------------------------------ *)

let test_json_exports_well_formed () =
  Obs.Trace.set_capacity 64;
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  Obs.Trace.instant_d "test.json" "detail \"quoted\" back\\slash\nnewline" 1;
  Obs.Trace.span_begin "test.json" 2;
  Obs.Trace.span_end "test.json";
  Obs.Trace.counter "test.json" 3;
  Obs.Trace.set_enabled false;
  Alcotest.(check bool) "Trace.chrome_json with hostile details parses" true
    (Json_check.valid (Obs.Trace.chrome_json ()))

(* Every destination but "-" is a file of Prometheus text, a .json
   path included. *)
let test_write_json_path () =
  Obs.set_enabled true;
  Obs.Counter.incr (Obs.Counter.make "test_obs_write_total");
  let path = Filename.temp_file "obs_write" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.write path;
  Alcotest.(check string) "file holds Obs.prometheus ()" (Obs.prometheus ())
    (In_channel.with_open_bin path In_channel.input_all)

(* --- flight recorder ----------------------------------------------------- *)

let test_trace_wraparound () =
  Obs.Trace.set_capacity 8;
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  for i = 1 to 20 do
    Obs.Trace.instant "test.wrap" i
  done;
  Obs.Trace.set_enabled false;
  Alcotest.(check int) "emitted counts past capacity" 20 (Obs.Trace.emitted ());
  Alcotest.(check int) "stored capped at capacity" 8 (Obs.Trace.stored ());
  let evs = Obs.Trace.events () in
  Alcotest.(check (list int)) "retains the newest events, oldest-first"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun e -> e.Obs.Trace.ev_arg) evs);
  let lines = String.split_on_char '\n' (Obs.Trace.dump ()) in
  let wrap_lines =
    List.filter (fun l -> contains_sub l "test.wrap") lines
  in
  Alcotest.(check int) "dump carries exactly the retained window" 8
    (List.length wrap_lines)

let test_trace_concurrent_emission () =
  Obs.Trace.set_capacity 4096;
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  let n = 1000 in
  Stats.Pool.run ~chunk:64 ~participants:4 n (fun i -> Obs.Trace.instant "test.conc" i);
  Obs.Trace.set_enabled false;
  let evs =
    List.filter
      (fun e -> e.Obs.Trace.ev_name = "test.conc")
      (Obs.Trace.events ())
  in
  Alcotest.(check int) "every concurrent emission recorded exactly once" n
    (List.length evs);
  let distinct =
    List.sort_uniq compare (List.map (fun e -> e.Obs.Trace.ev_arg) evs)
  in
  Alcotest.(check int) "all args distinct" n (List.length distinct);
  Alcotest.(check bool) "emitted covers at least the emissions" true
    (Obs.Trace.emitted () >= n)

let test_trace_disabled_allocates_nothing () =
  Obs.Trace.set_enabled false;
  let before = Obs.Trace.emitted () in
  let iters = 100_000 in
  for i = 1 to 64 do
    Obs.Trace.span_begin "test.disabled" i;
    Obs.Trace.span_end "test.disabled"
  done;
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  for i = 1 to iters do
    Obs.Trace.span_begin "test.disabled" i;
    Obs.Trace.instant "test.disabled" i;
    Obs.Trace.counter "test.disabled" i;
    Obs.Trace.span_end "test.disabled"
  done;
  (* Gc.allocated_bytes boxes its own float result, hence the sub-byte
     slack instead of an exact zero. *)
  let per_call = (Gc.allocated_bytes () -. a0) /. float_of_int (4 * iters) in
  Alcotest.(check bool)
    (Printf.sprintf "0 bytes per disabled trace call (measured %.4f)" per_call)
    true (per_call < 0.01);
  Alcotest.(check int) "nothing emitted while disabled" before
    (Obs.Trace.emitted ())

(* --- admin endpoint ------------------------------------------------------ *)

let http_get port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
      path
  in
  let _ = Unix.write_substring sock req 0 (String.length req) in
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 1024 in
  let rec drain () =
    let k = Unix.read sock chunk 0 1024 in
    if k > 0 then begin
      Buffer.add_subbytes buf chunk 0 k;
      drain ()
    end
  in
  drain ();
  Buffer.contents buf

let test_admin_fast_routes () =
  Obs.set_enabled true;
  let c = Obs.Counter.make "test_obs_admin_total" in
  Obs.Counter.add c 7;
  let fast = function
    | "/healthz" -> Some ("text/plain", "ok\n")
    | "/metrics" -> Some ("text/plain; version=0.0.4", Obs.prometheus ())
    | _ -> None
  in
  let admin = Obs.Admin.start ~port:0 ~fast () in
  Fun.protect ~finally:(fun () -> Obs.Admin.stop admin) @@ fun () ->
  let port = Obs.Admin.port admin in
  Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
  let health = http_get port "/healthz" in
  Alcotest.(check bool) "healthz answers 200" true
    (contains_sub health "200 OK");
  Alcotest.(check bool) "healthz body" true (contains_sub health "ok\n");
  let metrics = http_get port "/metrics" in
  Alcotest.(check bool) "metrics answers 200" true
    (contains_sub metrics "200 OK");
  Alcotest.(check bool) "metrics body carries the counter" true
    (contains_sub metrics "test_obs_admin_total 7")

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "registry",
        [
          q concurrent_counter_sum;
          q concurrent_float_sum;
          q bucket_index_matches_reference;
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "snapshot determinism" `Quick
            test_snapshot_determinism;
          Alcotest.test_case "disabled span allocates nothing" `Quick
            test_disabled_span_allocates_nothing;
        ] );
      ( "export",
        [
          q prometheus_label_roundtrip;
          Alcotest.test_case "json exporters well-formed" `Quick
            test_json_exports_well_formed;
          Alcotest.test_case "write to a .json path" `Quick test_write_json_path;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound keeps newest window" `Quick
            test_trace_wraparound;
          Alcotest.test_case "concurrent emission exact counts" `Quick
            test_trace_concurrent_emission;
          Alcotest.test_case "disabled trace allocates nothing" `Quick
            test_trace_disabled_allocates_nothing;
        ] );
      ( "admin",
        [
          Alcotest.test_case "fast routes over a real socket" `Quick
            test_admin_fast_routes;
        ] );
    ]
