(* End-end CLI validation for dcl-fleetd, dcl-identify, dcl-sim and
   dcl-pathchar: out-of-range
   or malformed arguments must be rejected at the cmdliner layer with
   the standard cli-error exit code (124) and never reach the library
   (where they would surface as an Invalid_argument backtrace, a NaN
   threshold or a vacuous verdict), and a trace file that exists but
   does not parse, or does not fit the flags, must be reported with
   exit code 1.  Runs the built executables as subprocesses; dune
   provides them via the stanza's deps. *)

let bin name = Filename.concat (Filename.concat ".." "bin") name
let exe = bin "dcl_fleetd.exe"
let identify_exe = bin "dcl_identify.exe"
let sim_exe = bin "dcl_sim.exe"
let pathchar_exe = bin "dcl_pathchar.exe"

let run ?(stderr = Filename.null) exe args =
  Sys.command (Filename.quote_command exe args ~stdout:Filename.null ~stderr)

let cli_error = 124

let check_rejected_by exe name args =
  Alcotest.(check int) name cli_error (run exe args)

let check_rejected = check_rejected_by exe

let test_lambda_validation () =
  check_rejected "lambda zero" [ "--lambda"; "0" ];
  check_rejected "lambda above one" [ "--lambda"; "1.5" ];
  check_rejected "lambda negative" [ "--lambda"; "-0.5" ];
  check_rejected "lambda not a number" [ "--lambda"; "fast" ];
  check_rejected "lambda nan" [ "--lambda"; "nan" ]

let test_epoch_validation () =
  check_rejected "epoch zero" [ "--epoch"; "0" ];
  check_rejected "epoch negative" [ "--epoch"; "-3" ];
  check_rejected "epochs zero" [ "--epochs"; "0" ];
  check_rejected "paths zero" [ "--paths"; "0" ];
  check_rejected "domains zero" [ "--domains"; "0" ];
  check_rejected "m below three" [ "-m"; "2" ];
  check_rejected "n zero" [ "-n"; "0" ]

let test_congested_fraction_validation () =
  check_rejected "fraction above one" [ "--congested-fraction"; "1.5" ];
  check_rejected "fraction negative" [ "--congested-fraction"; "-0.1" ]

let test_source_validation () =
  check_rejected "unknown source keyword" [ "--source"; "bogus" ];
  check_rejected "nonexistent trace file"
    [ "--source"; "no-such-trace-file.trace" ]

let test_gate_validation () =
  check_rejected "gate hysteresis zero" [ "--gate"; "--gate-h"; "0" ];
  check_rejected "gate demote zero" [ "--gate"; "--gate-demote"; "0" ];
  check_rejected "gate loss negative" [ "--gate"; "--gate-loss"; "-0.1" ];
  check_rejected "gate drift negative" [ "--gate"; "--gate-drift"; "-1" ]

let test_admin_validation () =
  check_rejected "listen port negative" [ "--listen"; "-1" ];
  check_rejected "listen port above 65535" [ "--listen"; "65536" ];
  check_rejected "listen port not a number" [ "--listen"; "http" ];
  check_rejected "metrics interval zero" [ "--metrics-interval"; "0" ];
  check_rejected "metrics interval negative" [ "--metrics-interval"; "-2" ];
  check_rejected "linger negative" [ "--linger"; "-1" ];
  check_rejected "linger infinite" [ "--linger"; "inf" ]

(* Durations and bandwidths must be finite and positive: zero or a
   negative value once escaped as an uncaught Invalid_argument, NaN as
   an empty trace, and infinity as a run that never ends. *)
let test_sim_validation () =
  let rejected exe name flags = check_rejected_by exe name flags in
  List.iter
    (fun (name, flags) ->
      rejected sim_exe ("dcl-sim " ^ name) ([ "-s"; "strongly" ] @ flags);
      rejected pathchar_exe ("dcl-pathchar " ^ name) ([ "-s"; "inet-ufpr" ] @ flags))
    [
      ("duration zero", [ "-d"; "0" ]);
      ("duration negative", [ "--duration=-5" ]);
      ("duration nan", [ "-d"; "nan" ]);
      ("duration infinite", [ "-d"; "inf" ]);
    ];
  rejected sim_exe "dcl-sim bw3 zero" [ "-s"; "strongly"; "--bw3"; "0" ];
  rejected sim_exe "dcl-sim bw3 negative" [ "-s"; "strongly"; "--bw3=-1" ];
  rejected sim_exe "dcl-sim bw3 infinite" [ "-s"; "strongly"; "--bw3"; "inf" ]

let tiny = [ "--paths"; "4"; "--epochs"; "2"; "--epoch"; "8"; "--seed"; "3" ]

let test_valid_runs () =
  Alcotest.(check int) "tiny synthetic run" 0 (run exe tiny);
  Alcotest.(check int) "tiny gated run" 0 (run exe (tiny @ [ "--gate" ]));
  Alcotest.(check int) "boundary values accepted" 0
    (run exe (tiny @ [ "--lambda"; "1.0"; "--congested-fraction"; "1.0" ]));
  Alcotest.(check int) "ephemeral listen port accepted" 0
    (run exe (tiny @ [ "--listen"; "0"; "--metrics-interval"; "2" ]))

(* --- live endpoint smoke ------------------------------------------------ *)

(* Launch the daemon with --listen 0, parse the announced ephemeral
   port from its stdout, and exercise the admin routes over a real
   socket while the run lingers.  The linger window is generous (the
   whole test takes well under a second of it) and the daemon exits by
   itself when it closes. *)

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
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    let k = Unix.read sock chunk 0 4096 in
    if k > 0 then begin
      Buffer.add_subbytes buf chunk 0 k;
      drain ()
    end
  in
  drain ();
  Buffer.contents buf

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let test_malformed_trace_source () =
  let trace = Filename.temp_file "fleetd_bad" ".trace" in
  let err = Filename.temp_file "fleetd_cli" ".err" in
  Fun.protect ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ trace; err ])
  @@ fun () ->
  Out_channel.with_open_text trace (fun oc -> output_string oc "not a trace\n");
  Alcotest.(check int) "exit code" 1 (run ~stderr:err exe (tiny @ [ "--source"; trace ]));
  Alcotest.(check bool) "stderr names FILE:1:" true
    (contains (read_file err) (trace ^ ":1:"))

(* A readable trace that cannot be discretized: no surviving probe, or
   every surviving probe with the same delay. *)
let test_degenerate_trace_source () =
  let check name body expected =
    let trace = Filename.temp_file "fleetd_degenerate" ".trace" in
    let err = Filename.temp_file "fleetd_cli" ".err" in
    Fun.protect ~finally:(fun () ->
        List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ trace; err ])
    @@ fun () ->
    Out_channel.with_open_text trace (fun oc ->
        output_string oc ("dcltrace 1 0.020000000 0.050000000 1\n" ^ body));
    Alcotest.(check int) (name ^ ": exit code") 1
      (run ~stderr:err exe (tiny @ [ "--source"; trace ]));
    let msg = read_file err in
    Alcotest.(check bool) (name ^ ": stderr names the file and the cause") true
      (contains msg trace && contains msg expected)
  in
  check "header only" "" "no surviving probe";
  check "equal delays" "0.000000 0.060000000\n0.020000 L\n0.040000 0.060000000\n"
    "no delay spread"

(* --- dcl-identify --------------------------------------------------------- *)

(* An identifiable 40 s trace: delays cycle through 60-140 ms and every
   25th probe is lost. *)
let with_identify_trace f =
  let trace = Filename.temp_file "identify_cli" ".trace" in
  Fun.protect ~finally:(fun () -> try Sys.remove trace with Sys_error _ -> ())
  @@ fun () ->
  let records =
    Array.init 2_000 (fun i ->
        let obs =
          if i mod 25 = 0 then Probe.Trace.Lost
          else Probe.Trace.Delay (0.06 +. (0.01 *. float_of_int (i mod 9)))
        in
        { Probe.Trace.send_time = 0.02 *. float_of_int i; obs; truth = None })
  in
  Probe.Trace.save
    (Probe.Trace.create ~records ~interval:0.02 ~base_delay:0.05 ~hop_count:1)
    trace;
  f trace

let test_identify_validation () =
  with_identify_trace @@ fun trace ->
  let rejected name flags = check_rejected_by identify_exe name (flags @ [ trace ]) in
  rejected "n zero" [ "-n"; "0" ];
  rejected "m zero" [ "-m"; "0" ];
  rejected "m one" [ "-m"; "1" ];
  rejected "m two" [ "-m"; "2" ];
  rejected "beta above one half" [ "--beta"; "1.5" ];
  rejected "beta negative" [ "--beta=-0.1" ];
  rejected "beta nan" [ "--beta"; "nan" ];
  rejected "eps negative" [ "--eps=-1" ];
  rejected "eps nan" [ "--eps"; "nan" ];
  rejected "propagation delay nan" [ "--propagation-delay"; "nan" ];
  rejected "propagation delay negative" [ "--propagation-delay=-1" ];
  rejected "propagation delay infinite" [ "--propagation-delay"; "inf" ]

let test_identify_propagation_delay () =
  with_identify_trace @@ fun trace ->
  let err = Filename.temp_file "identify_cli" ".err" in
  Fun.protect ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
  @@ fun () ->
  Alcotest.(check int) "exit code" 1
    (run ~stderr:err identify_exe [ "--propagation-delay"; "100"; trace ]);
  Alcotest.(check bool) "stderr names the flag" true
    (contains (read_file err) "--propagation-delay")

let test_identify_valid_runs () =
  with_identify_trace @@ fun trace ->
  Alcotest.(check int) "defaults" 0 (run identify_exe [ trace ]);
  Alcotest.(check int) "boundary values accepted" 0
    (run identify_exe
       [ "-n"; "1"; "-m"; "3"; "--beta"; "0"; "--eps"; "1"; "--propagation-delay"; "0"; trace ])

(* The daemon announces "admin: listening on http://127.0.0.1:PORT". *)
let parse_port out =
  let marker = "http://127.0.0.1:" in
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length out then None
    else if String.sub out i ml = marker then begin
      let j = ref (i + ml) in
      while
        !j < String.length out && out.[!j] >= '0' && out.[!j] <= '9'
      do
        incr j
      done;
      int_of_string_opt (String.sub out (i + ml) (!j - i - ml))
    end
    else find (i + 1)
  in
  find 0

let test_live_endpoint () =
  let out_path = Filename.temp_file "fleetd_cli" ".out" in
  Fun.protect ~finally:(fun () -> try Sys.remove out_path with Sys_error _ -> ())
  @@ fun () ->
  let out_fd =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  in
  let args =
    [|
      exe; "--paths"; "8"; "--epochs"; "40"; "--epoch"; "8"; "--seed"; "3";
      "--listen"; "0"; "--linger"; "30";
    |]
  in
  (* DCL_TRACE through the environment is the no-dump opt-in path — a
     regression here once left the flag set but the rings unallocated,
     so /trace served an empty event list. *)
  let env = Array.append (Unix.environment ()) [| "DCL_TRACE=1" |] in
  let pid = Unix.create_process_env exe args env Unix.stdin out_fd Unix.stderr in
  Unix.close out_fd;
  Fun.protect ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
  @@ fun () ->
  (* Poll for the announced port: the daemon prints it right after
     binding, well before the epochs finish. *)
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait_port () =
    match parse_port (read_file out_path) with
    | Some p -> p
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "daemon never announced its admin port"
        else begin
          Unix.sleepf 0.05;
          wait_port ()
        end
  in
  let port = wait_port () in
  let health = http_get port "/healthz" in
  Alcotest.(check bool) "healthz 200" true (contains health "200 OK");
  (* Slow routes are served by the driver between epochs (and during
     the linger window), so they may take an epoch's latency — the
     blocking socket read already waits for it. *)
  let paths = http_get port "/paths" in
  Alcotest.(check bool) "paths summary 200" true (contains paths "200 OK");
  Alcotest.(check bool) "summary counts the fleet" true
    (contains paths "\"paths\":8");
  let p0 = http_get port "/paths/0" in
  Alcotest.(check bool) "path detail 200" true (contains p0 "200 OK");
  Alcotest.(check bool) "path detail has a timeline" true
    (contains p0 "\"timeline\"");
  let missing = http_get port "/paths/999" in
  Alcotest.(check bool) "out-of-range path is 404" true
    (contains missing "404 Not Found");
  let unknown = http_get port "/nope" in
  Alcotest.(check bool) "unknown route is 404" true
    (contains unknown "404 Not Found");
  let trace = http_get port "/trace" in
  Alcotest.(check bool) "trace 200" true (contains trace "200 OK");
  Alcotest.(check bool) "env-enabled recorder captured events" true
    (contains trace "\"name\":\"fleet.epoch\"")

let () =
  if not (List.for_all Sys.file_exists [ exe; identify_exe; sim_exe; pathchar_exe ]) then begin
    (* Driven by dune, the deps guarantee the binaries; a bare run
       outside the build tree degrades to a skip, not a false fail. *)
    print_endline "test_fleetd_cli: a dcl_*.exe under ../bin not found, skipping";
    exit 0
  end;
  Alcotest.run "fleetd-cli"
    [
      ( "validation",
        [
          Alcotest.test_case "lambda range" `Quick test_lambda_validation;
          Alcotest.test_case "integer floors" `Quick test_epoch_validation;
          Alcotest.test_case "congested fraction" `Quick
            test_congested_fraction_validation;
          Alcotest.test_case "source keyword" `Quick test_source_validation;
          Alcotest.test_case "gate parameters" `Quick test_gate_validation;
          Alcotest.test_case "admin flags" `Quick test_admin_validation;
          Alcotest.test_case "malformed trace source" `Quick
            test_malformed_trace_source;
          Alcotest.test_case "degenerate trace source" `Quick
            test_degenerate_trace_source;
          Alcotest.test_case "sim and pathchar durations" `Quick test_sim_validation;
        ] );
      ( "accepted",
        [ Alcotest.test_case "valid invocations" `Quick test_valid_runs ] );
      ( "identify",
        [
          Alcotest.test_case "flag validation" `Quick test_identify_validation;
          Alcotest.test_case "propagation delay past the trace" `Quick
            test_identify_propagation_delay;
          Alcotest.test_case "valid invocations" `Quick test_identify_valid_runs;
        ] );
      ( "endpoint",
        [ Alcotest.test_case "live admin routes" `Quick test_live_endpoint ] );
    ]
