(* Unit tests for the dcl-lint contract checker: each rule fires on a
   minimal source at the exact (line, rule) position, suppression and
   its failure modes behave as documented, and the CLI honours its
   exit-code contract.  The end-end fixture corpus under
   [lint_fixtures/] is exercised both through [--fixtures] here and by
   [dune build @lint]. *)

let pairs diags = List.map (fun d -> Dcl_lint.(d.d_line, d.d_rule)) diags

let lint ?(path = "bin/fixture/under_test.ml") ?(mli_exists = true) src =
  pairs (Dcl_lint.lint_source ~mli_exists ~path src)

let check_diags name expected actual =
  Alcotest.(check (list (pair int string))) name expected actual

(* --- rule firing positions -------------------------------------------- *)

let test_r1_rng () =
  check_diags "Random use outside rng.ml"
    [ (2, "R1") ]
    (lint ~path:"lib/hmm/hmm.ml" "let x = 1\nlet y () = Random.int 7\n");
  check_diags "wall-clock seeding" [ (1, "R1") ]
    (lint ~path:"bench/bench_em.ml" "let t0 = Unix.gettimeofday ()\n");
  check_diags "sanctioned in rng.ml" []
    (lint ~path:"lib/stats/rng.ml" "let y () = Random.int 7\n")

let test_r2_concurrency () =
  check_diags "Atomic outside the sanctioned homes"
    [ (1, "R2") ]
    (lint ~path:"lib/dcl/dcl.ml" "let c = Atomic.make 0\n");
  check_diags "sanctioned in pool.ml" []
    (lint ~path:"lib/stats/pool.ml" "let c = Atomic.make 0\n");
  check_diags "sanctioned under lib/obs/" []
    (lint ~path:"lib/obs/obs.ml" "let c = Atomic.make 0\n");
  check_diags "lib/em/ is not a concurrency home" [ (1, "R2") ]
    (lint ~path:"lib/em/em.ml" "let k = Domain.DLS.new_key (fun () -> 0)\n");
  check_diags "sanctioned under lib/fleet/" []
    (lint ~path:"lib/fleet/scheduler.ml"
       "let k = Domain.DLS.new_key (fun () -> 0)\n");
  check_diags "lib/sketch/ is not a concurrency home" [ (1, "R2") ]
    (lint ~path:"lib/sketch/front.ml"
       "let k = Domain.DLS.new_key (fun () -> 0)\n");
  check_diags "other em modules are not a concurrency home" [ (1, "R2") ]
    (lint ~path:"lib/em/em_kernel.ml" "let k = Domain.DLS.new_key (fun () -> 0)\n")

let test_r3_float_cmp () =
  check_diags "= against a float literal" [ (1, "R3") ]
    (lint "let f x = x = 1.0\n");
  check_diags "<> with float arithmetic operand" [ (1, "R3") ]
    (lint "let f a b = (a +. b) <> 0.5\n");
  check_diags "polymorphic compare on floats" [ (1, "R3") ]
    (lint "let f x = compare x 1.0\n");
  check_diags "hand-rolled abs_float epsilon" [ (1, "R3") ]
    (lint "let f a b = abs_float (a -. b) < 1e-9\n");
  check_diags "int equality untouched" [] (lint "let f x = x = 1\n");
  check_diags "sanctioned in float_cmp.ml" []
    (lint ~path:"lib/stats/float_cmp.ml" "let f x = x = 1.0\n")

let test_r4_io () =
  check_diags "print_endline in lib/" [ (1, "R4") ]
    (lint ~path:"lib/dcl/dcl.ml" "let f () = print_endline \"x\"\n");
  check_diags "exit in lib/" [ (1, "R4") ]
    (lint ~path:"lib/dcl/dcl.ml" "let f () = exit 1\n");
  check_diags "binaries may print" []
    (lint ~path:"bin/dcl_cli.ml" "let f () = print_endline \"x\"\n")

let test_r5_hot_alloc () =
  let src =
    "let f xs =\n\
     \  (* lint: hot *)\n\
     \  let y = List.length xs in\n\
     \  (* lint: end-hot *)\n\
     \  let z = List.length xs in\n\
     \  y + z\n"
  in
  check_diags "allocating combinator only inside the fence" [ (3, "R5") ] (lint src);
  check_diags "list cons inside the fence" [ (2, "R5") ]
    (lint "let f x =\n  (* lint: hot *) x :: []\n(* lint: end-hot *)\n");
  check_diags "array accessors stay allowed" []
    (lint "let f (a : float array) =\n  (* lint: hot *)\n  Array.get a 0\n(* lint: end-hot *)\n")

let test_r5_bigarray () =
  (* Load/store accessors — safe and unsafe alike — are fence-clean,
     both through the full path and through a module alias. *)
  check_diags "accessors inside the fence" []
    (lint
       "module Ba = Bigarray.Array1\n\
        let f b =\n\
        \  (* lint: hot *)\n\
        \  Ba.unsafe_set b 0 (Bigarray.Array1.unsafe_get b 1 +. Ba.get b 2)\n\
        \  (* lint: end-hot *)\n");
  check_diags "Bigarray create inside the fence allocates" [ (3, "R5") ]
    (lint
       "let f () =\n\
        \  (* lint: hot *)\n\
        \  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 4\n\
        \  (* lint: end-hot *)\n");
  check_diags "aliased sub inside the fence allocates" [ (4, "R5") ]
    (lint
       "module Ba = Bigarray.Array1\n\
        let f b n =\n\
        \  (* lint: hot *)\n\
        \  Ba.sub b 0 n\n\
        \  (* lint: end-hot *)\n");
  check_diags "unsafe access outside any fence" [ (2, "R5") ]
    (lint "module Ba = Bigarray.Array1\nlet f b = Ba.unsafe_get b 0\n");
  check_diags "safe access outside a fence is fine" []
    (lint "module Ba = Bigarray.Array1\nlet f b = Ba.get b 0\n");
  check_diags "non-Bigarray alias is not captured" []
    (lint "module Ba = Stats.Matrix\nlet f b = Ba.unsafe_get b 0\n")

let test_r5_em_array () =
  check_diags "unsafe Array access in lib/em outside a fence" [ (1, "R5"); (2, "R5") ]
    (lint ~path:"lib/em/em.ml"
       "let f a = Array.unsafe_get a 0\nlet g a = Stdlib.Array.unsafe_set a 0 1.\n");
  check_diags "unsafe Array access inside the fence" []
    (lint ~path:"lib/em/em_kernel.ml"
       "let f a =\n  (* lint: hot *)\n  Array.unsafe_get a 0\n(* lint: end-hot *)\n");
  check_diags "checked Array access in lib/em is fine" []
    (lint ~path:"lib/em/em.ml" "let f a = a.(0) +. Array.get a 1\n");
  check_diags "the Array leg is confined to lib/em" []
    (lint ~path:"lib/dcl/dcl.ml" "let f a = Array.unsafe_get a 0\n");
  check_diags "suppressed with a reason" []
    (lint ~path:"lib/em/em.ml"
       "(* lint: allow R5 test reason *)\nlet f a = Array.unsafe_get a 0\n")

let test_r6_mli () =
  check_diags "bare lib module" [ (1, "R6") ]
    (lint ~path:"lib/dcl/dcl.ml" ~mli_exists:false "let x = 1\n");
  check_diags "mli present" [] (lint ~path:"lib/dcl/dcl.ml" ~mli_exists:true "let x = 1\n");
  check_diags "bin modules exempt" []
    (lint ~path:"bin/dcl_cli.ml" ~mli_exists:false "let x = 1\n")

(* --- suppression ------------------------------------------------------ *)

let test_allow_scope () =
  check_diags "allow covers the next line" []
    (lint "(* lint: allow R3 test reason *)\nlet f x = x = 1.0\n");
  check_diags "allow covers its own line" []
    (lint "let f x = x = 1.0 (* lint: allow R3 test reason *)\n");
  check_diags "allow does not reach two lines down" [ (3, "R3") ]
    (lint "(* lint: allow R3 test reason *)\nlet g x = x + 1\nlet f x = x = 1.0\n");
  check_diags "allow is rule-specific" [ (2, "R3") ]
    (lint "(* lint: allow R1 test reason *)\nlet f x = x = 1.0\n")

let test_bad_directives () =
  check_diags "allow without a reason is R0, and does not suppress"
    [ (1, "R0"); (2, "R3") ]
    (lint "(* lint: allow R3 *)\nlet f x = x = 1.0\n");
  check_diags "unknown rule id" [ (1, "R0") ] (lint "(* lint: allow R12 reason *)\n");
  check_diags "unclosed hot fence" [ (1, "R0") ] (lint "(* lint: hot *)\nlet x = 1\n");
  check_diags "R0 cannot be suppressed" [ (1, "R0"); (2, "R0") ]
    (lint "(* lint: allow R0 reason *)\n(* lint: allow R3 *)\n")

let test_owner_directives () =
  check_diags "unknown owner kind is R0" [ (1, "R0") ]
    (lint "(* lint: owner chef *)\nlet x = ref 0\n");
  check_diags "guarded-by without a mutex name is R0" [ (1, "R0") ]
    (lint "(* lint: owner shared guarded-by *)\nlet x = ref 0\n");
  check_diags "guarded-by only qualifies owner shared" [ (1, "R0") ]
    (lint "(* lint: owner driver guarded-by m *)\nlet x = ref 0\n");
  check_diags "well-formed owner annotations parse clean" []
    (lint
       "(* lint: owner driver *)\n\
        let a = ref 0\n\
        (* lint: owner worker *)\n\
        let b = ref 0\n\
        (* lint: owner shared guarded-by m *)\n\
        let c = ref 0\n")

(* --- CLI exit codes --------------------------------------------------- *)

let test_cli_exit_codes () =
  Alcotest.(check int) "--version exits 0" 0 (Dcl_lint.Cli.run [ "--version" ]);
  Alcotest.(check int) "--help exits 0" 0 (Dcl_lint.Cli.run [ "--help" ]);
  Alcotest.(check int) "unknown option exits 2" 2 (Dcl_lint.Cli.run [ "--frobnicate" ]);
  Alcotest.(check int) "no paths exits 2" 2 (Dcl_lint.Cli.run []);
  Alcotest.(check int) "missing path exits 2" 2 (Dcl_lint.Cli.run [ "no/such/dir" ])

let corpus_dir name = Filename.concat (Filename.dirname Sys.executable_name) name

let test_cli_fixture_corpus () =
  (* The corpus is a dune dep of this test, so it is staged next to the
     executable.  As a self-test every fixture must match its
     expectations; linted as ordinary sources the violation fixtures
     must drive the exit code to 1. *)
  let corpus = corpus_dir "lint_fixtures" in
  Alcotest.(check int) "--fixtures corpus is green" 0
    (Dcl_lint.Cli.run [ "--fixtures"; corpus ]);
  Alcotest.(check int) "violation fixtures fail a plain lint" 1
    (Dcl_lint.Cli.run [ "--json"; corpus ])

let test_cli_typed_fixture_corpus () =
  (* The typed corpus is a compiled dune library staged (with its .cmt
     artifacts) next to the executable, so the R7-R9 expectations run
     against real typedtrees. *)
  let corpus = corpus_dir "lint_fixtures_typed" in
  Alcotest.(check int) "typed corpus self-test is green" 0
    (Dcl_lint.Cli.run [ "--cmt"; corpus; "--fixtures"; corpus ]);
  Alcotest.(check int) "typed violations fail a plain lint" 1
    (Dcl_lint.Cli.run [ "--json"; "--cmt"; corpus; corpus ])

let test_r5_em_array_alias () =
  (* An Array.unsafe_* alias bound inside a lib/em fence and applied
     outside it is flagged by the typed pass (the parse pass sees only
     the fenced binding); a reasoned allow silences it. *)
  let corpus = corpus_dir "lint_fixtures_typed" in
  let lint_file name =
    Dcl_lint.Cli.run [ "--json"; "--only"; "R5"; "--cmt"; corpus; Filename.concat corpus name ]
  in
  Alcotest.(check int) "alias applied outside the fence" 1
    (lint_file "r5_array_alias_violation.ml");
  Alcotest.(check int) "suppressed alias" 0 (lint_file "r5_array_alias_suppressed.ml")

let test_r3_float_equal () =
  (* [Float.equal] / [Float.compare] are exact float comparisons under
     another name: the typed pass flags them, and a reasoned allow
     marks a deliberate exact test. *)
  let corpus = corpus_dir "lint_fixtures_typed" in
  let lint_file name =
    Dcl_lint.Cli.run [ "--json"; "--only"; "R3"; "--cmt"; corpus; Filename.concat corpus name ]
  in
  Alcotest.(check int) "Float.equal and Float.compare" 1
    (lint_file "r3_float_equal_violation.ml");
  Alcotest.(check int) "suppressed exact test" 0 (lint_file "r3_float_equal_suppressed.ml")

let test_cli_only () =
  let r3 = Filename.concat (corpus_dir "lint_fixtures") "r3_violation.ml" in
  Alcotest.(check int) "--only with an unknown rule exits 2" 2
    (Dcl_lint.Cli.run [ "--only"; "R42"; r3 ]);
  Alcotest.(check int) "--only keeping the firing rule reports it" 1
    (Dcl_lint.Cli.run [ "--json"; "--only"; "R3"; r3 ]);
  Alcotest.(check int) "--only filtering the firing rule away is clean" 0
    (Dcl_lint.Cli.run [ "--json"; "--only"; "R1"; r3 ]);
  Alcotest.(check int) "long rule names resolve" 1
    (Dcl_lint.Cli.run [ "--json"; "--only"; "float-cmp"; r3 ])

let test_cli_changed_files () =
  let corpus = corpus_dir "lint_fixtures" in
  let with_list lines f =
    let file = Filename.temp_file "dcl_lint_changed" ".txt" in
    let oc = open_out file in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)
  in
  with_list [ "r3_violation.ml" ] (fun file ->
      Alcotest.(check int) "sweep narrowed to a listed violation exits 1" 1
        (Dcl_lint.Cli.run [ "--json"; "--changed-files"; file; corpus ]));
  with_list [ "lib/nowhere/untouched.ml" ] (fun file ->
      Alcotest.(check int) "sweep narrowed to no listed file exits 0" 0
        (Dcl_lint.Cli.run [ "--json"; "--changed-files"; file; corpus ]));
  Alcotest.(check int) "missing list file exits 2" 2
    (Dcl_lint.Cli.run [ "--changed-files"; "/no/such/list"; corpus ])

(* --- SARIF -------------------------------------------------------------- *)

(* Minimal recursive-descent JSON syntax checker: enough to prove the
   exporter emits a well-formed document without a JSON dependency. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then incr pos else raise Exit in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | _ -> raise Exit
  and lit w = String.iter expect w
  and number () =
    let num = function
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
      | _ -> false
    in
    while num (peek ()) do
      incr pos
    done
  and str () =
    expect '"';
    let rec go () =
      match peek () with
      | Some '"' -> incr pos
      | Some '\\' ->
          incr pos;
          if peek () = None then raise Exit;
          incr pos;
          go ()
      | Some _ ->
          incr pos;
          go ()
      | None -> raise Exit
    in
    go ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let rec fields () =
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            fields ()
        | Some '}' -> incr pos
        | _ -> raise Exit
      in
      fields ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let rec items () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            items ()
        | Some ']' -> incr pos
        | _ -> raise Exit
      in
      items ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_sarif_document () =
  let diags =
    Dcl_lint.lint_source ~mli_exists:true ~path:"lib/dcl/dcl.ml"
      "let f x = x = 1.0\nlet g () = print_endline \"x\"\n"
  in
  Alcotest.(check int) "probe source fires two rules" 2 (List.length diags);
  let s = Dcl_lint.Sarif.to_string diags in
  Alcotest.(check bool) "SARIF parses as JSON" true (json_valid s);
  List.iter
    (fun field ->
      Alcotest.(check bool) (Printf.sprintf "SARIF carries %s" field) true
        (contains s field))
    [
      "\"$schema\"";
      "\"version\":\"2.1.0\"";
      "\"runs\"";
      "\"driver\"";
      "\"rules\"";
      "\"results\"";
      "\"ruleId\":\"R3\"";
      "\"ruleId\":\"R4\"";
      "\"ruleIndex\"";
      "\"level\":\"error\"";
      "\"physicalLocation\"";
      "\"startLine\":1";
      "\"startLine\":2";
      "\"uri\":\"lib/dcl/dcl.ml\"";
      "\"originalUriBaseIds\"";
      "[float-cmp]";
      "[io-containment]";
    ];
  Alcotest.(check bool) "an empty run still parses" true
    (json_valid (Dcl_lint.Sarif.to_string []))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 rng containment" `Quick test_r1_rng;
          Alcotest.test_case "R2 concurrency containment" `Quick test_r2_concurrency;
          Alcotest.test_case "R3 float comparison" `Quick test_r3_float_cmp;
          Alcotest.test_case "R3 Float.equal" `Quick test_r3_float_equal;
          Alcotest.test_case "R4 io containment" `Quick test_r4_io;
          Alcotest.test_case "R5 hot-region allocation" `Quick test_r5_hot_alloc;
          Alcotest.test_case "R5 Bigarray containment" `Quick test_r5_bigarray;
          Alcotest.test_case "R5 lib/em Array containment" `Quick test_r5_em_array;
          Alcotest.test_case "R5 lib/em Array alias" `Quick test_r5_em_array_alias;
          Alcotest.test_case "R6 missing mli" `Quick test_r6_mli;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "allow scope" `Quick test_allow_scope;
          Alcotest.test_case "bad directives" `Quick test_bad_directives;
          Alcotest.test_case "owner directives" `Quick test_owner_directives;
        ] );
      ( "cli",
        [
          Alcotest.test_case "exit codes" `Quick test_cli_exit_codes;
          Alcotest.test_case "fixture corpus" `Quick test_cli_fixture_corpus;
          Alcotest.test_case "typed fixture corpus" `Quick test_cli_typed_fixture_corpus;
          Alcotest.test_case "--only filter" `Quick test_cli_only;
          Alcotest.test_case "--changed-files filter" `Quick test_cli_changed_files;
        ] );
      ( "sarif",
        [ Alcotest.test_case "document shape" `Quick test_sarif_document ] );
    ]
