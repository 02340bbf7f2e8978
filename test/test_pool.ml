(* Property tests for the persistent domain pool behind Par.map_range:
   pooled results equal Array.init for arbitrary sizes and domain
   counts, worker exceptions re-raise in the caller, and back-to-back
   submissions reuse the warm pool (and warm per-domain EM workspaces)
   without cross-job contamination. *)

(* Force real worker domains even on small machines: the default cap is
   [size () - 1], which on a single-core CI box would route every job
   through the serial fallback and leave the concurrent path untested. *)
let () = Stats.Pool.set_capacity 3

let qtest t = QCheck_alcotest.to_alcotest t

(* --- map_range over random sizes/domain counts equals Array.init ------- *)

let test_map_range_matches_init =
  QCheck.Test.make ~name:"pooled map_range equals Array.init" ~count:200
    QCheck.(pair (int_bound 200) (int_range 1 9))
    (fun (n, domains) ->
      let f i = (i * 2654435761) lxor (i lsl 7) in
      Stats.Par.map_range ~domains n f = Array.init n f)

let test_map_range_allocating_payload =
  (* Boxed results exercise the GC across domains. *)
  QCheck.Test.make ~name:"pooled map_range with allocating items" ~count:50
    QCheck.(pair (int_bound 100) (int_range 2 8))
    (fun (n, domains) ->
      let f i = Array.init (1 + (i mod 17)) (fun k -> float_of_int (i + k)) in
      Stats.Par.map_range ~domains n f = Array.init n f)

let test_empty_and_clamp () =
  Alcotest.(check (array int)) "n = 0" [||] (Stats.Par.map_range ~domains:4 0 (fun i -> i));
  Alcotest.(check (array int)) "domains > n" [| 0; 1 |]
    (Stats.Par.map_range ~domains:64 2 (fun i -> i));
  Alcotest.(check (array int)) "domains = 0 clamps to serial" [| 0; 1; 2 |]
    (Stats.Par.map_range ~domains:0 3 (fun i -> i))

(* --- worker exceptions re-raise in the caller -------------------------- *)

exception Boom of int

let test_exception_reraised () =
  Alcotest.check_raises "item exception reaches the caller" (Boom 37) (fun () ->
      ignore
        (Stats.Par.map_range ~domains:4 100 (fun i ->
             if i = 37 then raise (Boom 37) else i)))

let test_exception_lowest_index () =
  (* Several failing items: the lowest index wins deterministically. *)
  match
    Stats.Par.map_range ~domains:4 100 (fun i ->
        if i mod 10 = 3 then raise (Boom i) else i)
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "lowest failing item" 3 i

let test_pool_survives_failure () =
  (* A failed job must not wedge the pool for later submissions. *)
  (try ignore (Stats.Par.map_range ~domains:4 20 (fun i -> if i = 5 then failwith "x" else i))
   with Failure _ -> ());
  Alcotest.(check (array int)) "next job runs" [| 0; 2; 4; 6 |]
    (Stats.Par.map_range ~domains:4 4 (fun i -> 2 * i))

(* --- warm reuse without cross-job contamination ------------------------ *)

let mmhd_obs ~seed ~n ~m ~len =
  let rng = Stats.Rng.create seed in
  let truth = Mmhd.init_random rng ~n ~m ~loss_fraction:0.08 in
  let obs, _ = Mmhd.simulate rng truth ~len in
  obs.(0) <- Some 0;
  obs.(1) <- None;
  obs

let test_no_respawn_across_jobs () =
  ignore (Stats.Par.map_range ~domains:4 16 (fun i -> i));
  let w1 = Stats.Pool.worker_count () in
  ignore (Stats.Par.map_range ~domains:4 16 (fun i -> i * i));
  ignore (Stats.Par.map_range ~domains:2 64 (fun i -> i + 1));
  let w2 = Stats.Pool.worker_count () in
  Alcotest.(check int) "workers persist across jobs" w1 w2;
  Alcotest.(check bool) "pool never exceeds its capacity" true (w2 <= 3);
  Alcotest.(check bool) "workers actually spawned" true (w2 > 0)

let test_warm_workspaces_not_contaminated () =
  (* Run a large model through the pool (growing every per-domain EM
     workspace), then a small model back-to-back: the small fit must be
     bit-identical to its serial run, i.e. nothing left in the warm
     workspaces leaks across jobs. *)
  let big_obs = mmhd_obs ~seed:41 ~n:3 ~m:5 ~len:900 in
  ignore (Mmhd.fit ~max_iter:8 ~restarts:4 ~domains:4 ~rng:(Stats.Rng.create 1) ~n:3 ~m:5 big_obs);
  let small_obs = mmhd_obs ~seed:43 ~n:2 ~m:3 ~len:300 in
  let fit domains =
    Mmhd.fit ~max_iter:12 ~restarts:4 ~domains ~rng:(Stats.Rng.create 2) ~n:2 ~m:3 small_obs
  in
  let pooled, p_stats = fit 4 in
  let serial, s_stats = fit 1 in
  Alcotest.(check (array (float 0.))) "pi" serial.Em.pi pooled.Em.pi;
  Alcotest.(check (array (float 0.))) "a" serial.Em.a pooled.Em.a;
  Alcotest.(check (array (float 0.))) "c" serial.Em.c pooled.Em.c;
  Alcotest.(check (float 1e-12)) "log-likelihood" s_stats.Em.log_likelihood
    p_stats.Em.log_likelihood

let test_nested_map_range_runs_inline () =
  (* Items that themselves call map_range must not deadlock; the inner
     call runs serially inside the item. *)
  let outer =
    Stats.Par.map_range ~domains:4 8 (fun i ->
        Array.fold_left ( + ) 0 (Stats.Par.map_range ~domains:4 5 (fun k -> i + k)))
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
        ] );
      ( "capacity",
        [
          Alcotest.test_case "set_capacity rejects non-positive" `Quick
            test_set_capacity_rejects_nonpositive;
        ] );
    ]
