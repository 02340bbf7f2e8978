(* Property tests for the persistent domain pool: a map built on
   Pool.run equals Array.init for arbitrary sizes and participant
   counts, worker exceptions re-raise in the caller, and back-to-back
   submissions reuse the warm pool (and warm per-domain EM workspaces)
   without cross-job contamination. *)

(* Force real worker domains even on small machines: the default cap is
   [size () - 1], which on a single-core CI box would route every job
   through the serial fallback and leave the concurrent path untested. *)
let () = Stats.Pool.set_capacity 3

let qtest t = QCheck_alcotest.to_alcotest t

(* The array-building map the properties check: item [i] fills slot [i]. *)
let map_range ~participants n f =
  let results = Array.make n None in
  Stats.Pool.run ~chunk:1 ~participants n (fun i -> results.(i) <- Some (f i));
  Array.map Option.get results

(* --- map_range over random sizes/participant counts equals Array.init -- *)

let test_map_range_matches_init =
  QCheck.Test.make ~name:"pooled map_range equals Array.init" ~count:200
    QCheck.(pair (int_bound 200) (int_range 1 9))
    (fun (n, domains) ->
      let f i = (i * 2654435761) lxor (i lsl 7) in
      map_range ~participants:domains n f = Array.init n f)

let test_map_range_allocating_payload =
  (* Boxed results exercise the GC across domains. *)
  QCheck.Test.make ~name:"pooled map_range with allocating items" ~count:50
    QCheck.(pair (int_bound 100) (int_range 2 8))
    (fun (n, domains) ->
      let f i = Array.init (1 + (i mod 17)) (fun k -> float_of_int (i + k)) in
      map_range ~participants:domains n f = Array.init n f)

let test_empty_and_clamp () =
  Alcotest.(check (array int)) "n = 0" [||] (map_range ~participants:4 0 (fun i -> i));
  Alcotest.(check (array int)) "domains > n" [| 0; 1 |]
    (map_range ~participants:64 2 (fun i -> i));
  Alcotest.(check (array int)) "domains = 0 clamps to serial" [| 0; 1; 2 |]
    (map_range ~participants:0 3 (fun i -> i))

(* --- worker exceptions re-raise in the caller -------------------------- *)

exception Boom of int

let test_exception_reraised () =
  Alcotest.check_raises "item exception reaches the caller" (Boom 37) (fun () ->
      ignore
        (map_range ~participants:4 100 (fun i ->
             if i = 37 then raise (Boom 37) else i)))

let test_exception_lowest_index () =
  (* Several failing items: the lowest index wins deterministically. *)
  match
    map_range ~participants:4 100 (fun i ->
        if i mod 10 = 3 then raise (Boom i) else i)
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "lowest failing item" 3 i

let test_pool_survives_failure () =
  (* A failed job must not wedge the pool for later submissions. *)
  (try ignore (map_range ~participants:4 20 (fun i -> if i = 5 then failwith "x" else i))
   with Failure _ -> ());
  Alcotest.(check (array int)) "next job runs" [| 0; 2; 4; 6 |]
    (map_range ~participants:4 4 (fun i -> 2 * i))

(* --- warm reuse without cross-job contamination ------------------------ *)

let mmhd_obs ~seed ~n ~m ~len =
  let rng = Stats.Rng.create seed in
  let truth = Mmhd.init_random rng ~n ~m ~loss_fraction:0.08 in
  let obs, _ = Mmhd.simulate rng truth ~len in
  obs.(0) <- 0;
  obs.(1) <- m;
  obs

let test_no_respawn_across_jobs () =
  (* Every submission publishes the spawned-worker count on the pool's
     [dcl_pool_workers] gauge. *)
  Obs.set_enabled true;
  let workers = Obs.Gauge.make "dcl_pool_workers" in
  let worker_count () = int_of_float (Obs.Gauge.value workers) in
  ignore (map_range ~participants:4 16 (fun i -> i));
  let w1 = worker_count () in
  ignore (map_range ~participants:4 16 (fun i -> i * i));
  ignore (map_range ~participants:2 64 (fun i -> i + 1));
  let w2 = worker_count () in
  Alcotest.(check int) "workers persist across jobs" w1 w2;
  Alcotest.(check bool) "pool never exceeds its capacity" true (w2 <= 3);
  Alcotest.(check bool) "workers actually spawned" true (w2 > 0)

let test_warm_workspaces_not_contaminated () =
  (* Grow every domain's EM workspace with a large model in one pool
     job, then fit a small model on every domain in the next: each fit
     must be bit-identical to one on a fresh workspace, i.e. nothing
     left in the warm [Em.domain_ws] buffers leaks across jobs. *)
  let big_obs = mmhd_obs ~seed:41 ~n:3 ~m:5 ~len:900 in
  let big = Mmhd.init_informed (Stats.Rng.create 1) ~n:3 ~m:5 big_obs in
  Stats.Pool.run ~chunk:1 ~participants:4 4 (fun _ ->
      ignore (Mmhd.fit_from ~max_iter:8 big big_obs));
  let small_obs = mmhd_obs ~seed:43 ~n:2 ~m:3 ~len:300 in
  let small = Mmhd.init_informed (Stats.Rng.create 2) ~n:2 ~m:3 small_obs in
  let fresh, f_stats =
    Em.fit_from ~ws:(Em.workspace ()) ~max_iter:12 ~update_b:false small small_obs
  in
  Array.iter
    (fun (warm, w_stats) ->
      Alcotest.(check (array (float 0.))) "pi" fresh.Em.pi warm.Em.pi;
      Alcotest.(check (array (float 0.))) "a" fresh.Em.a warm.Em.a;
      Alcotest.(check (array (float 0.))) "c" fresh.Em.c warm.Em.c;
      Alcotest.(check (float 0.)) "log-likelihood" f_stats.Em.log_likelihood
        w_stats.Em.log_likelihood)
    (map_range ~participants:4 4 (fun _ -> Mmhd.fit_from ~max_iter:12 small small_obs))

let test_nested_map_range_runs_inline () =
  (* Items that themselves call map_range must not deadlock; the inner
     call runs serially inside the item. *)
  let outer =
    map_range ~participants:4 8 (fun i ->
        Array.fold_left ( + ) 0 (map_range ~participants:4 5 (fun k -> i + k)))
  in
  Alcotest.(check (array int)) "nested results"
    (Array.init 8 (fun i -> (5 * i) + 10))
    outer

(* --- explicit chunk override ------------------------------------------- *)

let test_chunk_override_complete_and_exact =
  (* Any positive chunk size (including sizes larger than the range)
     must still run every item exactly once. *)
  QCheck.Test.make ~name:"chunked run covers every item once" ~count:100
    QCheck.(triple (int_bound 150) (int_range 1 200) (int_range 1 4))
    (fun (n, chunk, domains) ->
      let hits = Array.make (max n 1) 0 in
      Stats.Pool.run ~chunk ~participants:domains n (fun i ->
          hits.(i) <- hits.(i) + 1);
      Array.for_all (fun h -> h = 1) (Array.sub hits 0 n))

let test_chunk_rejects_nonpositive () =
  let reject c =
    Alcotest.check_raises
      (Printf.sprintf "chunk %d" c)
      (Invalid_argument "Pool.run: chunk must be positive")
      (fun () -> Stats.Pool.run ~chunk:c ~participants:2 4 ignore)
  in
  reject 0;
  reject (-3)

let test_queue_wait_once_per_domain () =
  (* One-item chunks make a domain pull many chunks of one job; the
     queue wait is observed only at each domain's first, so a job adds
     at most one observation per participating domain (the caller and
     at most one worker), however many chunks it has. *)
  Obs.set_enabled true;
  let waits = Obs.Histogram.make "dcl_pool_queue_wait_seconds" in
  let chunks = Obs.Counter.make "dcl_pool_chunks_total" in
  let w0 = Obs.Histogram.count waits and c0 = Obs.Counter.value chunks in
  for _ = 1 to 5 do
    Stats.Pool.run ~chunk:1 ~participants:2 64 ignore
  done;
  let dw = Obs.Histogram.count waits - w0 in
  let dc = int_of_float (Obs.Counter.value chunks -. c0) in
  Obs.set_enabled false;
  Alcotest.(check int) "every one-item chunk counted" (5 * 64) dc;
  Alcotest.(check bool) "at most one wait per domain per job" true
    (dw >= 5 && dw <= 5 * 2)

(* Distinct domains that ran items of one [participants]-wide job of
   [n] one-item chunks.  Each item spins for a while so every waiting
   worker has time to wake and try to join. *)
let domains_of_job ~participants n =
  let ran = Array.make n (-1) in
  Stats.Pool.run ~chunk:1 ~participants n (fun i ->
      let x = ref 0 in
      for k = 1 to 20_000 do
        x := !x lxor k
      done;
      ignore (Sys.opaque_identity !x);
      ran.(i) <- (Domain.self () :> int));
  List.sort_uniq compare (Array.to_list ran)

let test_participants_cap_domains () =
  (* A wider job first spawns every worker the capacity allows; later,
     narrower jobs must still run on at most [participants] domains,
     and a one-participant job inline on the caller. *)
  ignore (domains_of_job ~participants:4 64);
  for _ = 1 to 5 do
    let used = domains_of_job ~participants:2 64 in
    Alcotest.(check bool)
      (Printf.sprintf "participants 2 ran on %d domains" (List.length used))
      true
      (List.length used <= 2)
  done;
  Alcotest.(check (list int)) "participants 1 runs inline"
    [ (Domain.self () :> int) ]
    (domains_of_job ~participants:1 64)

let test_set_capacity_rejects_nonpositive () =
  let reject c =
    Alcotest.check_raises
      (Printf.sprintf "set_capacity %d" c)
      (Invalid_argument "Pool.set_capacity: capacity must be positive")
      (fun () -> Stats.Pool.set_capacity c)
  in
  reject 0;
  reject (-1);
  (* The override in force since startup must survive the rejected calls. *)
  Alcotest.(check int) "capacity unchanged" 3 (Stats.Pool.capacity ())

let () =
  Alcotest.run "pool"
    [
      ( "map_range",
        [
          qtest test_map_range_matches_init;
          qtest test_map_range_allocating_payload;
          Alcotest.test_case "empty and clamped inputs" `Quick test_empty_and_clamp;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "re-raised in caller" `Quick test_exception_reraised;
          Alcotest.test_case "lowest index wins" `Quick test_exception_lowest_index;
          Alcotest.test_case "pool survives a failed job" `Quick test_pool_survives_failure;
        ] );
      ( "warm reuse",
        [
          Alcotest.test_case "no respawn across jobs" `Quick test_no_respawn_across_jobs;
          Alcotest.test_case "workspaces not contaminated" `Quick
            test_warm_workspaces_not_contaminated;
          Alcotest.test_case "nested map_range runs inline" `Quick
            test_nested_map_range_runs_inline;
        ] );
      ( "chunk",
        [
          qtest test_chunk_override_complete_and_exact;
          Alcotest.test_case "chunk rejects non-positive" `Quick
            test_chunk_rejects_nonpositive;
          Alcotest.test_case "queue wait once per domain" `Quick
            test_queue_wait_once_per_domain;
          Alcotest.test_case "participants cap the domains" `Quick
            test_participants_cap_domains;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "set_capacity rejects non-positive" `Quick
            test_set_capacity_rejects_nonpositive;
        ] );
    ]
