(* The CI report gate (Phi_check.Report_check): well-formed /11 reports
   pass, whole or from a single experiment, and injected regressions
   trip it — swarm throughput below the floor, p99 over budget,
   allocation over budget on the link loop, the dumbbell or the WAN,
   decision-plane speedup below the floor or
   lookups that box, pdes determinism or scaling broken, wan_matrix
   fairness/FCT out of range or serial-probe divergence, an old schema,
   and sections that disagree with the experiments list.  This is the
   acceptance proof that the gate actually gates. *)

module J = Phi_util.Json
module Check = Phi_check.Report_check

let alloc ?(minor_words_per_packet = 0.0) ?(dumbbell_minor_words_per_packet = 9.7)
    ?(wan_minor_words_per_packet = 5.9) () =
  J.Obj
    [
      ("minor_words_per_event", J.float 12.5);
      ("minor_words_per_packet", J.float minor_words_per_packet);
      ("dumbbell_minor_words_per_packet", J.float dumbbell_minor_words_per_packet);
      ("wan_minor_words_per_packet", J.float wan_minor_words_per_packet);
      ("pool_high_water", J.Int 64);
    ]

(* One row of the algorithm matrix, physically sane by default. *)
let matrix_row ?(algorithm = "cubic") ?(cell = "wan/flap") ?(throughput_bps = 3.7e6)
    ?(loss_rate = 0.02) ?(jain = 0.54) ?(p99_fct_s = 1.8) ?(connections = 54) () =
  J.Obj
    [
      ("algorithm", J.String algorithm);
      ("cell", J.String cell);
      ("aqm", J.String "droptail");
      ("throughput_bps", J.float throughput_bps);
      ("delay_s", J.float 0.138);
      ("queueing_delay_s", J.float 0.018);
      ("loss_rate", J.float loss_rate);
      ("power", J.float 26.3);
      ("jain", J.float jain);
      ("p99_fct_s", J.float p99_fct_s);
      ("connections", J.Int connections);
    ]

(* The layout both matrix sections share. *)
let matrix ?(duration_s = 6.) ?(extra = []) rows =
  J.Obj
    ([
       ("duration_s", J.float duration_s);
       ("seeds", J.Int 1);
       ("jobs", J.Int 4);
       ("cells", J.List rows);
     ]
    @ extra)

(* One row per registered algorithm: the gate requires full coverage. *)
let cc_matrix ?(drop_first_algorithm = false)
    ?(row = fun algorithm -> matrix_row ~algorithm ~cell:"low" ()) () =
  let names =
    match Phi.Cc_algo.names with
    | _ :: rest when drop_first_algorithm -> rest
    | names -> names
  in
  matrix (List.map row names)

let swarm ?(lookups_per_s = 60_000.) ?(p99_lookup_s = 4e-6) ?(jain = 0.3) ?(lookups = 1_000_000)
    () =
  J.Obj
    [
      ("flows", J.Int 1_000_000);
      ("lookups", J.Int lookups);
      ("reports", J.Int 1_000_000);
      ("lookups_per_s", J.float lookups_per_s);
      ("reports_per_s", J.float lookups_per_s);
      ("p50_lookup_s", J.float 1e-6);
      ("p99_lookup_s", J.float p99_lookup_s);
      ("jain_index", J.float jain);
      ("resident_paths", J.Int 5231);
      ("evictions", J.Int 6034);
      ("flushes", J.Int 34719);
      ("fingerprint", J.String "flows=1000000 checksum=c074b375");
    ]

let decision ?(speedup = 150.) ?(minor_words_per_lookup = 0.0) () =
  J.Obj
    [
      ("whiskers", J.Int 512);
      ("cells", J.Int 4000);
      ("points", J.Int 10_000);
      ("interpreted_lookups_per_s", J.float 150_000.);
      ("compiled_lookups_per_s", J.float (150_000. *. speedup));
      ("speedup", J.float speedup);
      ("minor_words_per_lookup", J.float minor_words_per_lookup);
      ("policy_interpreted_choices_per_s", J.float 6_500_000.);
      ("policy_compiled_choices_per_s", J.float 24_000_000.);
      ("policy_speedup", J.float 3.7);
    ]

(* One point of the parking-lot scaling curve; identical fingerprints
   and event counts by default, as determinism demands. *)
let pdes_run ?(jobs = 1) ?(wall_s = 8.0) ?(events = 750_000)
    ?(fingerprint = "senders=1000 events=750000 boundary=50000 retx=900 checksum=757e1b62") () =
  J.Obj
    [
      ("jobs", J.Int jobs);
      ("wall_s", J.float wall_s);
      ("events", J.Int events);
      ("events_per_s", J.float (float_of_int events /. wall_s));
      ("fingerprint", J.String fingerprint);
    ]

let pdes ?(cores = 4)
    ?(runs = [ pdes_run (); pdes_run ~jobs:2 ~wall_s:4.2 (); pdes_run ~jobs:4 ~wall_s:2.3 () ])
    () =
  J.Obj
    [
      ("islands", J.Int 4);
      ("window_s", J.float 0.01);
      ("senders", J.Int 1000);
      ("duration_s", J.float 8.);
      ("cores", J.Int cores);
      ("jobs", J.Int 4);
      ("runs", J.List runs);
    ]

let wan_matrix ?duration_s ?(cells = [ matrix_row () ])
    ?(serial = "0x1.c4fp+21;0x1.1aap-3;0x1.169p-1;0x1.c89p+0;0x1.a3fp+4;54")
    ?probe_parallel () =
  let parallel = match probe_parallel with Some p -> p | None -> serial in
  matrix ?duration_s cells
    ~extra:
      [
        ( "determinism",
          J.Obj
            [
              ("cell", J.String "cubic/wan/flap");
              ("parallel", J.String parallel);
              ("serial", J.String serial);
            ] );
      ]

let micro ?(new_events_per_s = 3.7e6) () =
  J.Obj
    [
      ("quick", J.Bool true);
      ( "events",
        J.Obj
          [
            ("events", J.Int 200_000);
            ("chains", J.Int 8192);
            ("new_events_per_s", J.float new_events_per_s);
            ("port_events_per_s", J.float 4.1e6);
          ] );
      ( "packets",
        J.Obj
          [
            ("link_loop_packets", J.Int 100_031);
            ("link_loop_packets_per_s", J.float 5.4e6);
            ("dumbbell_sim_s", J.float 10.);
            ("dumbbell_data_packets", J.Int 9799);
            ("dumbbell_packets_per_s", J.float 2.0e5);
          ] );
    ]

(* Every section with passing figures, in the order bench/main.exe
   writes them. *)
let full_sections =
  [
    ("cc_matrix", cc_matrix ());
    ("swarm", swarm ());
    ("pdes", pdes ());
    ("wan_matrix", wan_matrix ());
    ("micro", micro ());
    ("alloc", alloc ());
    ("decision", decision ());
  ]

(* The experiment that emits each section — Report_check's table,
   restated independently. *)
let owner = function
  | "micro" | "alloc" | "decision" -> "micro"
  | "cc_matrix" -> "matrix"
  | section -> section

let experiments_of sections =
  List.sort_uniq String.compare (List.map (fun (name, _) -> owner name) sections)

(* A report carrying [sections] (default: all of them) and listing the
   experiments they imply unless [experiments] says otherwise. *)
let report ?(schema = Check.schema) ?experiments ?(sections = full_sections) () =
  let experiments = match experiments with Some ids -> ids | None -> experiments_of sections in
  J.Obj
    ([
       ("schema", J.String schema);
       ("budget", J.String "quick (4-point grid, 2 seeds, 45 s runs)");
       ("jobs", J.Int 4);
       ("cores", J.Int 4);
       ( "experiments",
         J.List
           (List.map
              (fun id -> J.Obj [ ("id", J.String id); ("wall_s", J.float 1.5); ("cells", J.Int 1) ])
              experiments) );
       ("headline", J.Obj []);
     ]
    @ sections)

(* The full report with one section's figures replaced. *)
let with_section name json =
  report
    ~sections:(List.map (fun (n, s) -> if n = name then (n, json) else (n, s)) full_sections)
    ()

(* A report from a single experiment ([--only ID]): just its sections. *)
let only experiment =
  report ~sections:(List.filter (fun (name, _) -> owner name = experiment) full_sections) ()

let check doc = Check.check ~path:"report.json" doc

let expect_pass what doc =
  match check doc with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s should pass the gate but failed: %s" what msg

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let expect_fail what ~mentioning doc =
  match check doc with
  | Ok () -> Alcotest.failf "%s should trip the gate but passed" what
  | Error msg ->
    if not (contains ~needle:mentioning msg) then
      Alcotest.failf "%s tripped the gate but for the wrong reason: %s" what msg

(* Every experiment listed, but [section] missing from the report. *)
let missing section =
  report ~experiments:(experiments_of full_sections)
    ~sections:(List.filter (fun (name, _) -> name <> section) full_sections)
    ()

let test_valid_reports_pass () =
  expect_pass "a full /10 report" (report ());
  List.iter
    (fun id -> expect_pass (Printf.sprintf "an --only %s report" id) (only id))
    (experiments_of full_sections);
  expect_pass "a report whose experiments carry no sections"
    (report ~experiments:[ "figure2a"; "table3" ] ~sections:[] ())

let test_swarm_throughput_gate () =
  (* An order-of-magnitude slowdown must fail CI. *)
  expect_fail "lookups/s below the committed floor" ~mentioning:"below the committed floor"
    (with_section "swarm" (swarm ~lookups_per_s:6_000. ()));
  (* The floor applies to a partial run too — the --only swarm smoke is
     gated like a full report. *)
  expect_fail "an --only swarm report with a slow swarm section"
    ~mentioning:"below the committed floor"
    (report ~sections:[ ("swarm", swarm ~lookups_per_s:6_000. ()) ] ())

let test_swarm_latency_gate () =
  expect_fail "p99 over the latency budget" ~mentioning:"exceeds the budget"
    (with_section "swarm" (swarm ~p99_lookup_s:0.25 ()))

let test_swarm_structure_gate () =
  expect_fail "swarm listed without a swarm section" ~mentioning:"requires a \"swarm\" section"
    (missing "swarm");
  expect_fail "collapsed shard balance" ~mentioning:"shard balance collapsed"
    (with_section "swarm" (swarm ~jain:0.01 ()));
  expect_fail "broken flow accounting" ~mentioning:"flow accounting"
    (with_section "swarm" (swarm ~lookups:999_999 ()))

let test_alloc_gate () =
  expect_fail "allocation regression" ~mentioning:"allocation regression"
    (with_section "alloc" (alloc ~minor_words_per_packet:3.2 ()));
  (* The dumbbell before its transport and controller state was
     unboxed read 23 to 25 words per data packet. *)
  expect_fail "dumbbell allocation regression" ~mentioning:"per dumbbell data packet exceeds"
    (with_section "alloc" (alloc ~dumbbell_minor_words_per_packet:23.3 ()));
  expect_fail "alloc without the dumbbell figure"
    ~mentioning:"missing \"dumbbell_minor_words_per_packet\""
    (with_section "alloc"
       (J.Obj
          [
            ("minor_words_per_event", J.float 12.5);
            ("minor_words_per_packet", J.float 0.);
            ("pool_high_water", J.Int 64);
          ]))

let test_cc_matrix_gate () =
  expect_fail "cc_matrix missing a registered algorithm" ~mentioning:"does not cover"
    (with_section "cc_matrix" (cc_matrix ~drop_first_algorithm:true ()));
  (* Both matrix sections share the per-row sanity gates. *)
  expect_fail "cc_matrix row with jain over 1" ~mentioning:"\"jain\" must be in (0, 1]"
    (with_section "cc_matrix"
       (cc_matrix ~row:(fun algorithm -> matrix_row ~algorithm ~cell:"high" ~jain:1.2 ()) ()))

let test_decision_speedup_gate () =
  (* The flat table degenerating back into a scan must fail CI. *)
  expect_fail "speedup below the committed floor" ~mentioning:"only 4.0x"
    (with_section "decision" (decision ~speedup:4. ()));
  expect_fail "an --only micro report with a slow decision section" ~mentioning:"only 4.0x"
    (report
       ~sections:
         [ ("micro", micro ()); ("alloc", alloc ()); ("decision", decision ~speedup:4. ()) ]
       ())

let test_decision_alloc_gate () =
  (* One boxed float on the lookup path is 2 words/lookup — far over. *)
  expect_fail "lookups that box" ~mentioning:"minor words/lookup exceeds"
    (with_section "decision" (decision ~minor_words_per_lookup:2.0 ()))

let test_decision_structure_gate () =
  expect_fail "micro listed without a decision section"
    ~mentioning:"requires a \"decision\" section" (missing "decision");
  expect_fail "a micro section with a zero event rate" ~mentioning:"must be a positive number"
    (with_section "micro" (micro ~new_events_per_s:0. ()))

let with_pdes ?cores ?runs () = with_section "pdes" (pdes ?cores ?runs ())

let test_pdes_determinism_gate () =
  (* A jobs-dependent fingerprint means the partitioned engine is not
     replaying the serial schedule — the whole contract. *)
  expect_fail "fingerprint divergence" ~mentioning:"determinism broken"
    (with_pdes ~runs:[ pdes_run (); pdes_run ~jobs:2 ~fingerprint:"checksum=deadbeef" () ] ());
  expect_fail "event count divergence" ~mentioning:"determinism broken"
    (with_pdes ~runs:[ pdes_run (); pdes_run ~jobs:2 ~events:749_999 () ] ());
  expect_fail "an --only pdes report with a diverging pdes section"
    ~mentioning:"determinism broken"
    (report
       ~sections:
         [ ("pdes", pdes ~runs:[ pdes_run (); pdes_run ~jobs:2 ~fingerprint:"x" () ] ()) ]
       ())

let test_pdes_scaling_gate () =
  (* 1.38x at 4 domains on a 4-core box is a scaling regression... *)
  expect_fail "speedup below the committed floor" ~mentioning:"scaling regression"
    (with_pdes ~runs:[ pdes_run (); pdes_run ~jobs:4 ~wall_s:5.8 () ] ());
  (* ...but the same curve on a 1-core box is unmeasurable, and a curve
     with no >= 4-domain run has nothing to hold to the floor. *)
  expect_pass "slow scaling on a 1-core box"
    (with_pdes ~cores:1 ~runs:[ pdes_run (); pdes_run ~jobs:4 ~wall_s:5.8 () ] ());
  expect_pass "no 4-domain run recorded"
    (with_pdes ~runs:[ pdes_run (); pdes_run ~jobs:2 ~wall_s:4.4 () ] ())

let test_pdes_structure_gate () =
  expect_fail "pdes listed without a pdes section" ~mentioning:"requires a \"pdes\" section"
    (missing "pdes");
  expect_fail "empty runs array" ~mentioning:"non-empty \"runs\"" (with_pdes ~runs:[] ());
  expect_fail "run without a fingerprint" ~mentioning:"fingerprint"
    (with_pdes ~runs:[ pdes_run ~fingerprint:"" () ] ())

let with_wan_row cell = with_section "wan_matrix" (wan_matrix ~cells:[ cell ] ())

let test_wan_matrix_sanity_gate () =
  (* Jain is a mean of ratios in (0, 1]; anything outside means the
     per-source byte accounting broke. *)
  expect_fail "jain over 1" ~mentioning:"\"jain\" must be in (0, 1]"
    (with_wan_row (matrix_row ~jain:1.2 ()));
  expect_fail "jain of 0" ~mentioning:"\"jain\" must be in (0, 1]"
    (with_wan_row (matrix_row ~jain:0. ()));
  (* FCTs are measured inside the run, so p99 past the cell duration is
     a bookkeeping bug, not a slow network. *)
  expect_fail "p99 FCT past the cell duration" ~mentioning:"outside (0, 6]"
    (with_wan_row (matrix_row ~p99_fct_s:7.5 ()));
  expect_fail "cell with no completed connections" ~mentioning:"positive \"connections\""
    (with_wan_row (matrix_row ~connections:0 ()));
  expect_fail "loss rate over 1" ~mentioning:"\"loss_rate\" must be in [0, 1]"
    (with_wan_row (matrix_row ~loss_rate:1.5 ()));
  (* The --quick --only wan_matrix smoke is gated too. *)
  expect_fail "an --only wan_matrix report with an unfair cell" ~mentioning:"(0, 1]"
    (report ~sections:[ ("wan_matrix", wan_matrix ~cells:[ matrix_row ~jain:1.2 () ] ()) ] ())

let test_wan_matrix_determinism_gate () =
  (* A pool-fanned cell that disagrees with its serial replay means the
     matrix is jobs-dependent — the contract Cc_matrix.run promises. *)
  expect_fail "serial probe divergence" ~mentioning:"determinism broken"
    (with_section "wan_matrix" (wan_matrix ~probe_parallel:"0x1.deadbeefp+0;54" ()))

let test_wan_matrix_structure_gate () =
  expect_fail "wan_matrix listed without a wan_matrix section"
    ~mentioning:"requires a \"wan_matrix\" section" (missing "wan_matrix");
  expect_fail "empty cells array" ~mentioning:"non-empty \"cells\""
    (with_section "wan_matrix" (wan_matrix ~cells:[] ()));
  expect_fail "missing determinism probe" ~mentioning:"\"determinism\" probe"
    (with_section "wan_matrix"
       (matrix [ matrix_row () ]))

let test_schema_gate () =
  expect_fail "unknown schema" ~mentioning:"unknown \"schema\""
    (report ~schema:"phi-bench-report/99" ());
  (* One schema is accepted: the previous version's report is rejected
     however complete it is. *)
  expect_fail "a /9 report" ~mentioning:"unknown \"schema\""
    (report ~schema:(Printf.sprintf "phi-bench-report/%d" 9) ())

let test_sections_follow_experiments () =
  (* Every row of the table, both ways: an experiment that ran without
     its section, and a section whose experiment is not listed. *)
  List.iter
    (fun (section, _) ->
      let experiment = owner section in
      expect_fail
        (Printf.sprintf "%s listed without its %s section" experiment section)
        ~mentioning:(Printf.sprintf "requires a \"%s\" section" section)
        (missing section);
      expect_fail
        (Printf.sprintf "a %s section without the %s experiment" section experiment)
        ~mentioning:"section without its"
        (report
           ~experiments:(List.filter (fun id -> id <> experiment) (experiments_of full_sections))
           ()))
    full_sections;
  expect_fail "a lone section with no experiment listed" ~mentioning:"section without its"
    (report ~experiments:[ "table1" ] ~sections:[ ("swarm", swarm ()) ] ())

(* The remy-phi WAN cell's allocation gate, and the schema it came
   with: a report of the previous schema is rejected. *)
let test_wan_alloc_gate () =
  expect_fail "WAN allocation regression" ~mentioning:"per WAN bottleneck packet exceeds"
    (with_section "alloc" (alloc ~wan_minor_words_per_packet:9.1 ()));
  expect_fail "alloc without the WAN figure" ~mentioning:"missing \"wan_minor_words_per_packet\""
    (with_section "alloc"
       (J.Obj
          [
            ("minor_words_per_event", J.float 12.5);
            ("minor_words_per_packet", J.float 0.);
            ("dumbbell_minor_words_per_packet", J.float 9.7);
            ("pool_high_water", J.Int 64);
          ]));
  expect_fail "a /10 report" ~mentioning:"unknown \"schema\""
    (report ~schema:(Printf.sprintf "phi-bench-report/%d" 10) ())

let suite =
  [
    Alcotest.test_case "well-formed reports pass" `Quick test_valid_reports_pass;
    Alcotest.test_case "swarm throughput floor trips" `Quick test_swarm_throughput_gate;
    Alcotest.test_case "swarm p99 budget trips" `Quick test_swarm_latency_gate;
    Alcotest.test_case "swarm structure is enforced" `Quick test_swarm_structure_gate;
    Alcotest.test_case "allocation budget trips" `Quick test_alloc_gate;
    Alcotest.test_case "cc_matrix coverage is enforced" `Quick test_cc_matrix_gate;
    Alcotest.test_case "decision speedup floor trips" `Quick test_decision_speedup_gate;
    Alcotest.test_case "decision allocation budget trips" `Quick test_decision_alloc_gate;
    Alcotest.test_case "decision structure is enforced" `Quick test_decision_structure_gate;
    Alcotest.test_case "pdes determinism gate trips" `Quick test_pdes_determinism_gate;
    Alcotest.test_case "pdes scaling floor trips" `Quick test_pdes_scaling_gate;
    Alcotest.test_case "pdes structure is enforced" `Quick test_pdes_structure_gate;
    Alcotest.test_case "wan_matrix sanity gates trip" `Quick test_wan_matrix_sanity_gate;
    Alcotest.test_case "wan_matrix determinism gate trips" `Quick test_wan_matrix_determinism_gate;
    Alcotest.test_case "wan_matrix structure is enforced" `Quick test_wan_matrix_structure_gate;
    Alcotest.test_case "unknown schemas are rejected" `Quick test_schema_gate;
    Alcotest.test_case "sections follow the experiments list" `Quick
      test_sections_follow_experiments;
    Alcotest.test_case "WAN allocation budget trips" `Quick test_wan_alloc_gate;
  ]
