(* Tests for the phi core library: metrics, context, context server,
   policy, prioritization and informed adaptation. *)

module Engine = Phi_sim.Engine
module Cubic = Phi_tcp.Cubic
open Phi

(* {2 Metric} *)

let test_power_formula () =
  Alcotest.(check (float 1e-9)) "r/d in Mbps/s" 10.
    (Metric.power ~throughput_bps:1e6 ~delay_s:0.1);
  Alcotest.(check (float 1e-9)) "degenerate" 0. (Metric.power ~throughput_bps:0. ~delay_s:0.1)

let test_power_with_loss () =
  Alcotest.(check (float 1e-9)) "P_l" 9.
    (Metric.power_with_loss ~throughput_bps:1e6 ~loss_rate:0.1 ~delay_s:0.1);
  Alcotest.(check (float 1e-9)) "loss clamped" 0.
    (Metric.power_with_loss ~throughput_bps:1e6 ~loss_rate:2. ~delay_s:0.1)

let test_log_power () =
  Alcotest.(check (float 1e-9)) "ln(r/d)" (log 10.)
    (Metric.log_power ~throughput_bps:1e6 ~delay_s:0.1);
  Alcotest.(check bool) "starved" true
    (Float.equal (Metric.log_power ~throughput_bps:0. ~delay_s:0.1) neg_infinity)

let test_compare_desc () =
  Alcotest.(check bool) "higher first" true (Metric.compare_desc 2. 1. < 0);
  Alcotest.(check bool) "nan last" true (Metric.compare_desc nan 1. > 0)

(* {2 Context} *)

let ctx ?(u = 0.) ?(q = 0.) ?(n = 0) ?(l = 0.) () =
  { Context.utilization = u; queue_delay_s = q; competing_senders = n; loss_rate = l }

let test_severity_monotone_in_utilization () =
  Alcotest.(check bool) "more utilization, more severe" true
    (Context.severity (ctx ~u:0.9 ()) > Context.severity (ctx ~u:0.1 ()));
  let s = Context.severity (ctx ~u:1. ~q:1. ~n:1000 ~l:1. ()) in
  Alcotest.(check bool) "bounded" true (s >= 0. && s <= 1.)

let test_bucketize_edges () =
  let b = Context.bucketize (ctx ()) in
  Alcotest.(check int) "u bucket 0" 0 b.Context.u_bucket;
  Alcotest.(check int) "n bucket 0" 0 b.Context.n_bucket;
  Alcotest.(check int) "q bucket 0" 0 b.Context.q_bucket;
  let b = Context.bucketize (ctx ~u:0.99 ~q:1. ~n:1000 ()) in
  Alcotest.(check int) "u top" 3 b.Context.u_bucket;
  Alcotest.(check int) "n top" 3 b.Context.n_bucket;
  Alcotest.(check int) "q top" 3 b.Context.q_bucket

let test_bucket_distance () =
  let a = Context.bucketize (ctx ()) in
  let b = Context.bucketize (ctx ~u:0.99 ~q:1. ~n:1000 ()) in
  Alcotest.(check int) "L1 distance" 9 (Context.bucket_distance a b);
  Alcotest.(check int) "self distance" 0 (Context.bucket_distance a a)

(* {2 Context_server} *)

let server_fixture ?capacity_bps ?(window_s = 10.) () =
  let engine = Engine.create () in
  let server = Context_server.create engine ?capacity_bps ~window_s () in
  (engine, server)

let test_server_empty_context () =
  let _, server = server_fixture () in
  let c = Context_server.peek server ~path:"p" in
  Alcotest.(check (float 0.)) "no utilization" 0. c.Context.utilization;
  Alcotest.(check int) "no senders" 0 c.Context.competing_senders

let test_server_active_counting () =
  let _, server = server_fixture () in
  ignore (Context_server.lookup server ~path:"p");
  ignore (Context_server.lookup server ~path:"p");
  Alcotest.(check int) "two active" 2 (Context_server.active_connections server ~path:"p");
  Context_server.report server ~path:"p" ~bytes:1000 ~duration_s:1. ~min_rtt:0.1 ~mean_rtt:0.12
    ~retransmitted:0 ~segments:10;
  Alcotest.(check int) "one left" 1 (Context_server.active_connections server ~path:"p");
  Alcotest.(check int) "lookups" 2 (Context_server.lookup_count server);
  Alcotest.(check int) "reports" 1 (Context_server.report_count server)

let test_server_utilization_estimate () =
  let engine, server = server_fixture ~capacity_bps:1e6 () in
  Engine.run ~until:10. engine;
  (* 500 kbit over the last 10 s against a 1 Mb/s path: u = 0.05... use a
     5 s transfer of 125000 B = 1 Mbit -> windowed rate 0.1 Mb/s? No:
     1 Mbit over 10 s window = 0.1 of capacity. *)
  Context_server.report server ~path:"p" ~bytes:125_000 ~duration_s:5. ~min_rtt:0.1
    ~mean_rtt:0.15 ~retransmitted:0 ~segments:84;
  let c = Context_server.peek server ~path:"p" in
  Alcotest.(check (float 1e-6)) "u = bits / window / capacity" 0.1 c.Context.utilization;
  Alcotest.(check (float 1e-6)) "q from rtt excess" 0.05 c.Context.queue_delay_s

let test_server_window_expiry () =
  let engine, server = server_fixture ~capacity_bps:1e6 ~window_s:5. () in
  Engine.run ~until:1. engine;
  Context_server.report server ~path:"p" ~bytes:125_000 ~duration_s:1. ~min_rtt:0.1
    ~mean_rtt:0.1 ~retransmitted:0 ~segments:84;
  Alcotest.(check bool) "fresh report counts" true
    ((Context_server.peek server ~path:"p").Context.utilization > 0.);
  Engine.run ~until:20. engine;
  Alcotest.(check (float 0.)) "stale report expired" 0.
    (Context_server.peek server ~path:"p").Context.utilization

let test_server_loss_ewma () =
  let _, server = server_fixture () in
  Context_server.report server ~path:"p" ~bytes:1000 ~duration_s:1. ~min_rtt:nan ~mean_rtt:nan
    ~retransmitted:5 ~segments:100;
  let c = Context_server.peek server ~path:"p" in
  Alcotest.(check (float 1e-9)) "loss seeded" 0.05 c.Context.loss_rate

let test_server_learns_capacity () =
  let engine, server = server_fixture () in
  Engine.run ~until:10. engine;
  Context_server.report server ~path:"p" ~bytes:1_250_000 ~duration_s:10. ~min_rtt:0.1
    ~mean_rtt:0.1 ~retransmitted:0 ~segments:800;
  (match Context_server.learned_capacity_bps server ~path:"p" with
  | Some c -> Alcotest.(check bool) "positive estimate" true (c > 0.)
  | None -> Alcotest.fail "expected learned capacity");
  Alcotest.(check bool) "paths independent" true
    (Context_server.learned_capacity_bps server ~path:"other" = None)

(* {2 Policy} *)

(* Policy choices are registry values; the heuristic and the
   nearest-bucket machinery still tune Cubic parameters, so unwrap for
   the parameter-level assertions. *)
let cubic_of = function
  | Cc_algo.Cubic p -> p
  | a -> Alcotest.fail ("expected a Cubic choice, got " ^ Cc_algo.name a)

let test_policy_heuristic_monotone () =
  let quiet = cubic_of (Policy.heuristic (ctx ())) in
  let busy = cubic_of (Policy.heuristic (ctx ~u:0.95 ~q:0.3 ~n:64 ~l:0.04 ())) in
  Alcotest.(check bool) "quiet starts bigger" true
    (quiet.Cubic.initial_cwnd > busy.Cubic.initial_cwnd);
  Alcotest.(check bool) "quiet threshold bigger" true
    (quiet.Cubic.initial_ssthresh > busy.Cubic.initial_ssthresh);
  Alcotest.(check bool) "busy backs off harder" true (busy.Cubic.beta >= quiet.Cubic.beta)

let test_policy_learned_exact_hit () =
  let policy = Policy.create () in
  let context = ctx ~u:0.5 ~q:0.02 ~n:4 () in
  let params = Cubic.with_knobs ~initial_cwnd:42. Cubic.default_params in
  Policy.learn policy (Context.bucketize context) (Cc_algo.Cubic params);
  let got = cubic_of (Policy.choice_for policy context) in
  Alcotest.(check (float 0.)) "learned params" 42. got.Cubic.initial_cwnd

let test_policy_nearest_fallback () =
  let policy = Policy.create () in
  let learned_ctx = ctx ~u:0.5 ~q:0.02 ~n:4 () in
  let params = Cubic.with_knobs ~initial_cwnd:24. Cubic.default_params in
  Policy.learn policy (Context.bucketize learned_ctx) (Cc_algo.Cubic params);
  (* One bucket away in u: nearest neighbour applies. *)
  let near = ctx ~u:0.7 ~q:0.02 ~n:4 () in
  Alcotest.(check (float 0.)) "nearest" 24.
    (cubic_of (Policy.choice_for policy near)).Cubic.initial_cwnd;
  (* Far away: falls back to the heuristic, not the lone learned entry. *)
  let far = ctx ~u:0.99 ~q:0.5 ~n:100 () in
  Alcotest.(check bool) "heuristic fallback" true
    (not (Float.equal (cubic_of (Policy.choice_for policy far)).Cubic.initial_cwnd 24.))

let test_policy_learns_any_algorithm () =
  (* The control plane is algorithm-agnostic: a bucket can select any
     registered algorithm, not just Cubic parameters. *)
  let policy = Policy.create () in
  let context = ctx ~u:0.5 ~q:0.02 ~n:4 () in
  Policy.learn policy (Context.bucketize context) Cc_algo.Vegas;
  match Policy.choice_for policy context with
  | Cc_algo.Vegas -> ()
  | a -> Alcotest.fail ("expected vegas, got " ^ Cc_algo.name a)

let test_policy_learned_listing () =
  let policy = Policy.create () in
  Alcotest.(check int) "empty" 0 (List.length (Policy.learned policy));
  Policy.learn policy (Context.bucketize (ctx ())) (Cc_algo.Cubic Cubic.default_params);
  Alcotest.(check int) "one entry" 1 (List.length (Policy.learned policy))

(* {2 Cc_algo registry} *)

let test_cc_algo_registry () =
  Alcotest.(check (list string)) "registered names"
    [ "cubic"; "reno"; "vegas"; "remy"; "remy-phi" ]
    Cc_algo.names;
  List.iter
    (fun a ->
      match Cc_algo.of_name (Cc_algo.name a) with
      | Some b -> Alcotest.(check string) "of_name round-trips" (Cc_algo.name a) (Cc_algo.name b)
      | None -> Alcotest.fail ("of_name missed " ^ Cc_algo.name a))
    Cc_algo.all;
  Alcotest.(check bool) "unknown rejected" true (Cc_algo.of_name "bogus" = None)

let test_basic_builder_rejects_remy_variants () =
  let raised a =
    try
      ignore (Cc_algo.basic_builder ~ctx:Context.empty a);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "remy needs a table" true (raised Cc_algo.Remy);
  Alcotest.(check bool) "remy-phi needs a table" true (raised Cc_algo.Remy_phi)

(* {2 Priority} *)

let test_priority_allocation_proportional () =
  let w = Priority.allocate ~total_weight:8. ~priorities:[| 3.; 1. |] in
  Alcotest.(check (array (float 1e-9))) "3:1 split" [| 6.; 2. |] w

let test_priority_ensemble_sums_to_n () =
  let w = Priority.ensemble_weights ~priorities:[| 4.; 1.; 1.; 1.; 1. |] in
  Alcotest.(check (float 1e-9)) "sums to 5" 5. (Array.fold_left ( +. ) 0. w)

let test_priority_rejects_bad_input () =
  let raised f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero priority" true
    (raised (fun () -> ignore (Priority.allocate ~total_weight:1. ~priorities:[| 0. |])));
  Alcotest.(check bool) "empty" true
    (raised (fun () -> ignore (Priority.allocate ~total_weight:1. ~priorities:[||])))

let test_priority_factories () =
  let factories = Priority.cc_factories ~priorities:[| 2.; 1. |] in
  Alcotest.(check int) "one per flow" 2 (Array.length factories);
  let cc = factories.(0) () in
  Alcotest.(check bool) "weighted name" true
    (String.length cc.Phi_tcp.Cc.name > 4)

let prop_server_context_always_valid =
  QCheck.Test.make ~name:"context server estimates stay in range" ~count:100
    QCheck.(pair (int_range 0 10_000) (list_of_size Gen.(int_range 0 30) (pair (int_range 0 1_000_000) (int_range 1 100))))
    (fun (seed, reports) ->
      ignore seed;
      let engine = Engine.create () in
      let server = Context_server.create engine ~capacity_bps:1e6 () in
      List.iter
        (fun (bytes, deci_duration) ->
          Context_server.report server ~path:"p" ~bytes
            ~duration_s:(float_of_int deci_duration /. 10.)
            ~min_rtt:0.1
            ~mean_rtt:(0.1 +. (float_of_int (bytes mod 100) /. 1000.))
            ~retransmitted:(bytes mod 7) ~segments:(1 + (bytes mod 50)))
        reports;
      let c = Context_server.peek server ~path:"p" in
      c.Context.utilization >= 0.
      && c.Context.utilization <= 1.
      && c.Context.queue_delay_s >= 0.
      && c.Context.loss_rate >= 0.
      && c.Context.loss_rate <= 1.)

let prop_policy_choice_always_constructible =
  QCheck.Test.make ~name:"policy choices always build through the basic builder" ~count:200
    QCheck.(
      quad (float_bound_inclusive 1.) (float_bound_inclusive 0.5) (int_range 0 200)
        (float_bound_inclusive 0.2))
    (fun (u, q, n, l) ->
      let policy = Policy.create () in
      let context =
        { Context.utilization = u; queue_delay_s = q; competing_senders = n; loss_rate = l }
      in
      (* the builder rejects invalid parameters, so constructing is the check *)
      let cc = Cc_algo.basic_builder ~ctx:context (Policy.choice_for policy context) in
      cc.Phi_tcp.Cc.cwnd >= 1.)

(* {2 Secure_agg} *)

let test_secure_agg_sum_recovered () =
  let rng = Phi_util.Prng.create ~seed:31 in
  let session = Secure_agg.create rng ~participants:5 in
  let values = [ 0.81; 0.12; 0.55; 0.97; 0.33 ] in
  let shares = List.mapi (fun p v -> Secure_agg.submit session ~participant:p ~value:v) values in
  let total = List.fold_left ( +. ) 0. values in
  Alcotest.(check (float 1e-5)) "sum" total (Secure_agg.aggregate session shares);
  Alcotest.(check (float 1e-5)) "mean" (total /. 5.) (Secure_agg.mean session shares)

let test_secure_agg_share_masks_value () =
  let rng = Phi_util.Prng.create ~seed:32 in
  let session = Secure_agg.create rng ~participants:3 in
  let share = Secure_agg.submit session ~participant:0 ~value:0.5 in
  (* The raw fixed-point encoding of 0.5 is 500000; a masked share should
     be nowhere near it (masks are full-range 64-bit). *)
  Alcotest.(check bool) "masked" true (Int64.abs share > 1_000_000_000L)

let test_secure_agg_rounds_independent () =
  let rng = Phi_util.Prng.create ~seed:33 in
  let session = Secure_agg.create rng ~participants:2 in
  let round participant_values =
    List.mapi (fun p v -> Secure_agg.submit session ~participant:p ~value:v) participant_values
  in
  let r1 = round [ 0.25; 0.75 ] in
  let r2 = round [ 0.10; 0.20 ] in
  Alcotest.(check (float 1e-5)) "round 1" 1.0 (Secure_agg.aggregate session r1);
  Alcotest.(check (float 1e-5)) "round 2" 0.30 (Secure_agg.aggregate session r2)

let test_secure_agg_validation () =
  let rng = Phi_util.Prng.create ~seed:34 in
  let raised f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "1 participant rejected" true
    (raised (fun () -> ignore (Secure_agg.create rng ~participants:1)));
  let session = Secure_agg.create rng ~participants:2 in
  Alcotest.(check bool) "unknown participant" true
    (raised (fun () -> ignore (Secure_agg.submit session ~participant:7 ~value:0.)));
  Alcotest.(check bool) "wrong share count" true
    (raised (fun () -> ignore (Secure_agg.aggregate session [ 1L ])))

let prop_secure_agg_exact =
  QCheck.Test.make ~name:"secure aggregation always recovers the sum" ~count:100
    QCheck.(pair (int_range 2 8) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Phi_util.Prng.create ~seed in
      let session = Secure_agg.create rng ~participants:n in
      let values = List.init n (fun i -> float_of_int ((i * 13 mod 97) - 40) /. 7.) in
      let shares =
        List.mapi (fun p v -> Secure_agg.submit session ~participant:p ~value:v) values
      in
      let total = List.fold_left ( +. ) 0. values in
      Float.abs (Secure_agg.aggregate session shares -. total) < 1e-4)

(* {2 Adaptation} *)

let test_jitter_buffer_from_shared () =
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  (* p95 of 1..100 with interpolation is 95.05; + 5 margin. *)
  Alcotest.(check (float 0.2)) "p95 + margin" 100.
    (Adaptation.jitter_buffer_ms ~shared_jitter_ms:samples ());
  Alcotest.(check bool) "below cold start" true
    (Adaptation.jitter_buffer_ms ~shared_jitter_ms:samples ()
    < Adaptation.cold_start_jitter_buffer_ms)

let test_late_packet_fraction () =
  let jitter = [| 1.; 2.; 3.; 50. |] in
  Alcotest.(check (float 1e-9)) "one late" 0.25
    (Adaptation.late_packet_fraction ~jitter_ms:jitter ~buffer_ms:10.);
  Alcotest.(check (float 1e-9)) "empty" 0.
    (Adaptation.late_packet_fraction ~jitter_ms:[||] ~buffer_ms:10.)

let test_dupack_threshold_rises_with_reordering () =
  let none = Array.make 100 0 in
  Alcotest.(check int) "standard 3" 3 (Adaptation.dupack_threshold ~reorder_depths:none ());
  let deep = Array.init 100 (fun i -> if i < 20 then 6 else 0) in
  let t = Adaptation.dupack_threshold ~reorder_depths:deep () in
  Alcotest.(check int) "raised past depth" 7 t;
  Alcotest.(check int) "empty sample" 3 (Adaptation.dupack_threshold ~reorder_depths:[||] ())

let suite =
  [
    ("power formula", `Quick, test_power_formula);
    ("power with loss", `Quick, test_power_with_loss);
    ("log power", `Quick, test_log_power);
    ("compare desc", `Quick, test_compare_desc);
    ("severity monotone", `Quick, test_severity_monotone_in_utilization);
    ("bucketize edges", `Quick, test_bucketize_edges);
    ("bucket distance", `Quick, test_bucket_distance);
    ("server empty context", `Quick, test_server_empty_context);
    ("server active counting", `Quick, test_server_active_counting);
    ("server utilization estimate", `Quick, test_server_utilization_estimate);
    ("server window expiry", `Quick, test_server_window_expiry);
    ("server loss ewma", `Quick, test_server_loss_ewma);
    ("server learns capacity", `Quick, test_server_learns_capacity);
    ("policy heuristic monotone", `Quick, test_policy_heuristic_monotone);
    ("policy learned exact hit", `Quick, test_policy_learned_exact_hit);
    ("policy nearest fallback", `Quick, test_policy_nearest_fallback);
    ("policy learns any algorithm", `Quick, test_policy_learns_any_algorithm);
    ("policy learned listing", `Quick, test_policy_learned_listing);
    ("cc_algo registry", `Quick, test_cc_algo_registry);
    ("basic builder rejects remy variants", `Quick, test_basic_builder_rejects_remy_variants);
    ("priority allocation", `Quick, test_priority_allocation_proportional);
    ("priority ensemble sum", `Quick, test_priority_ensemble_sums_to_n);
    ("priority rejects bad input", `Quick, test_priority_rejects_bad_input);
    ("priority factories", `Quick, test_priority_factories);
    QCheck_alcotest.to_alcotest prop_server_context_always_valid;
    QCheck_alcotest.to_alcotest prop_policy_choice_always_constructible;
    ("secure agg sum recovered", `Quick, test_secure_agg_sum_recovered);
    ("secure agg share masked", `Quick, test_secure_agg_share_masks_value);
    ("secure agg rounds independent", `Quick, test_secure_agg_rounds_independent);
    ("secure agg validation", `Quick, test_secure_agg_validation);
    QCheck_alcotest.to_alcotest prop_secure_agg_exact;
    ("jitter buffer from shared", `Quick, test_jitter_buffer_from_shared);
    ("late packet fraction", `Quick, test_late_packet_fraction);
    ("dupack threshold", `Quick, test_dupack_threshold_rises_with_reordering);
  ]
