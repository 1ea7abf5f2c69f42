(* Tests for Phi_runner.Pool: submission-order determinism, per-job
   exception isolation, the serial --jobs 1 path, and end-to-end sweep
   equivalence (a parallel Figure-2a-style sweep must be bit-for-bit
   identical to the serial one). *)

module Pool = Phi_runner.Pool
open Phi_experiments

(* A job with input-dependent cost, so parallel completion order differs
   from submission order and ordered reassembly is actually exercised. *)
let lumpy x =
  let n = 1 + ((x * 7919) mod 5000) in
  let acc = ref x in
  for i = 1 to n do
    acc := (!acc * 31) + i
  done;
  !acc

let test_map_matches_serial_map () =
  let inputs = List.init 100 (fun i -> i) in
  let expected = List.map lumpy inputs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d equals serial List.map" jobs)
        expected
        (Pool.map ~jobs lumpy inputs))
    [ 1; 2; 4; 13 ]

let test_more_jobs_than_items () =
  Alcotest.(check (list int)) "batch smaller than pool" [ 10; 20 ]
    (Pool.map ~jobs:16 (fun x -> x * 10) [ 1; 2 ])

let test_empty_batch () =
  Alcotest.(check (list int)) "empty batch" [] (Pool.map ~jobs:4 lumpy []);
  Alcotest.(check (list int)) "empty batch serial" [] (Pool.map ~jobs:1 lumpy [])

let test_jobs_one_runs_in_submission_order () =
  (* The serial path runs in the calling domain, so unsynchronized
     mutation from the job is safe and observes strict submission
     order. *)
  let seen = ref [] in
  let result =
    Pool.map ~jobs:1
      (fun x ->
        seen := x :: !seen;
        x)
      [ 5; 1; 4; 2 ]
  in
  Alcotest.(check (list int)) "results in order" [ 5; 1; 4; 2 ] result;
  Alcotest.(check (list int)) "executed in order" [ 5; 1; 4; 2 ] (List.rev !seen)

let test_invalid_jobs_rejected () =
  Alcotest.check_raises "jobs=0" (Invalid_argument "Pool.try_map: jobs must be >= 1")
    (fun () -> ignore (Pool.map ~jobs:0 lumpy [ 1 ]))

let test_default_jobs_positive () =
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1);
  Alcotest.(check bool) "available_cores >= 1" true (Pool.available_cores () >= 1)

(* {2 Exception isolation} *)

exception Boom of int

let boomy x = if x mod 3 = 0 then raise (Boom x) else x * 2

let test_try_map_isolates_failures () =
  List.iter
    (fun jobs ->
      let results = Pool.try_map ~jobs boomy [ 0; 1; 2; 3; 4; 5 ] in
      Alcotest.(check int) "all six accounted for" 6 (List.length results);
      List.iteri
        (fun i r ->
          match r with
          | Ok v ->
            Alcotest.(check bool) "survivor at non-multiple" true (i mod 3 <> 0);
            Alcotest.(check int) "survivor value" (i * 2) v
          | Error (e : Pool.error) ->
            Alcotest.(check bool) "failure at multiple of 3" true (i mod 3 = 0);
            Alcotest.(check int) "error index" i e.Pool.index;
            (match e.Pool.exn with
            | Boom x -> Alcotest.(check int) "exception payload" i x
            | _ -> Alcotest.fail "wrong exception"))
        results)
    [ 1; 4 ]

let test_map_reports_all_failures_after_draining () =
  match Pool.map ~jobs:4 boomy [ 0; 1; 2; 3; 4; 5; 6 ] with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Pool.Job_failed errors ->
    Alcotest.(check (list int)) "every failing index, submission order" [ 0; 3; 6 ]
      (List.map (fun (e : Pool.error) -> e.Pool.index) errors);
    List.iter
      (fun (e : Pool.error) ->
        Alcotest.(check bool) "error renders" true
          (String.length (Pool.error_to_string e) > 0))
      errors

(* {2 Sweep equivalence: parallel experiment == serial experiment} *)

let tiny_grid = { Sweep.ssthresh = [ 2.; 64. ]; init_w = [ 2.; 16. ]; beta = [ 0.2 ] }

let check_point msg (a : Sweep.point) (b : Sweep.point) =
  Alcotest.(check string)
    (msg ^ " params")
    (Phi_tcp.Cubic.params_to_string a.Sweep.params)
    (Phi_tcp.Cubic.params_to_string b.Sweep.params);
  let a = a.Sweep.mean and b = b.Sweep.mean in
  Alcotest.(check (float 0.)) (msg ^ " throughput") a.Scenario.throughput_bps
    b.Scenario.throughput_bps;
  Alcotest.(check (float 0.)) (msg ^ " qdelay") a.Scenario.queueing_delay_s
    b.Scenario.queueing_delay_s;
  Alcotest.(check (float 0.)) (msg ^ " loss") a.Scenario.loss_rate b.Scenario.loss_rate;
  Alcotest.(check (float 0.)) (msg ^ " power") a.Scenario.power b.Scenario.power

let test_sweep_identical_across_jobs () =
  (* The Figure 2a workload on a reduced budget: every per-setting
     number must be identical at --jobs 1 and --jobs 4. *)
  let config = { Scenario.low_utilization with Scenario.duration_s = 20. } in
  let seeds = [ 1; 2 ] in
  let serial = Sweep.run ~jobs:1 config tiny_grid ~seeds in
  let parallel = Sweep.run ~jobs:4 config tiny_grid ~seeds in
  Alcotest.(check int) "same point count" (List.length serial.Sweep.points)
    (List.length parallel.Sweep.points);
  List.iter2 (fun a b -> check_point "grid point" a b) serial.Sweep.points
    parallel.Sweep.points;
  check_point "default point" serial.Sweep.default_point parallel.Sweep.default_point;
  check_point "optimal point" (Sweep.optimal serial) (Sweep.optimal parallel)

let test_run_many_identical_across_jobs () =
  let seeds = [ 1; 2; 3; 4 ] in
  let serial = Adaptation_experiment.run_many ~jobs:1 ~n_shared:300 ~n_test:300 ~seeds () in
  let parallel = Adaptation_experiment.run_many ~jobs:3 ~n_shared:300 ~n_test:300 ~seeds () in
  List.iter2
    (fun (a : Adaptation_experiment.result) (b : Adaptation_experiment.result) ->
      Alcotest.(check (float 0.)) "informed buffer" a.Adaptation_experiment.jitter.Adaptation_experiment.informed_buffer_ms
        b.Adaptation_experiment.jitter.Adaptation_experiment.informed_buffer_ms;
      Alcotest.(check int) "dupack threshold"
        a.Adaptation_experiment.dupack.Adaptation_experiment.recommended_threshold
        b.Adaptation_experiment.dupack.Adaptation_experiment.recommended_threshold)
    serial parallel;
  (* And seed order is preserved: element i is seed (i+1)'s serial run. *)
  List.iteri
    (fun i (p : Adaptation_experiment.result) ->
      let direct = Adaptation_experiment.run ~n_shared:300 ~n_test:300 ~seed:(i + 1) () in
      Alcotest.(check (float 0.)) "matches direct run"
        direct.Adaptation_experiment.jitter.Adaptation_experiment.informed_buffer_ms
        p.Adaptation_experiment.jitter.Adaptation_experiment.informed_buffer_ms)
    parallel

let suite =
  [
    ("pool map equals serial map", `Quick, test_map_matches_serial_map);
    ("pool wider than batch", `Quick, test_more_jobs_than_items);
    ("pool empty batch", `Quick, test_empty_batch);
    ("pool jobs=1 serial order", `Quick, test_jobs_one_runs_in_submission_order);
    ("pool invalid jobs rejected", `Quick, test_invalid_jobs_rejected);
    ("pool default jobs positive", `Quick, test_default_jobs_positive);
    ("pool exception isolation", `Quick, test_try_map_isolates_failures);
    ("pool aggregated failure report", `Quick, test_map_reports_all_failures_after_draining);
    ("sweep identical across jobs", `Slow, test_sweep_identical_across_jobs);
    ("run_many identical across jobs", `Quick, test_run_many_identical_across_jobs);
  ]
