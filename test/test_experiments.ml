(* Integration tests over the experiment harness — including the paper's
   headline claims as assertions, on reduced budgets. *)

module Topology = Phi_net.Topology
module Cubic = Phi_tcp.Cubic
open Phi_experiments

let quick config = { config with Scenario.duration_s = 30. }

(* {2 Scenario runner} *)

let test_scenario_run_basics () =
  let r = Scenario.run (quick Scenario.low_utilization) in
  Alcotest.(check bool) "connections completed" true (r.Scenario.connections > 10);
  Alcotest.(check bool) "throughput positive" true (r.Scenario.throughput_bps > 0.);
  Alcotest.(check bool) "utilization sane" true
    (r.Scenario.utilization > 0.1 && r.Scenario.utilization <= 1.);
  Alcotest.(check bool) "power positive" true (r.Scenario.power > 0.)

let test_scenario_deterministic () =
  let a = Scenario.run (quick Scenario.low_utilization) in
  let b = Scenario.run (quick Scenario.low_utilization) in
  Alcotest.(check (float 0.)) "same throughput" a.Scenario.throughput_bps
    b.Scenario.throughput_bps;
  Alcotest.(check int) "same conns" a.Scenario.connections b.Scenario.connections

let test_scenario_seed_changes_outcome () =
  let a = Scenario.run (quick Scenario.low_utilization) in
  let b = Scenario.run { (quick Scenario.low_utilization) with Scenario.seed = 99 } in
  Alcotest.(check bool) "different" true
    (a.Scenario.throughput_bps <> b.Scenario.throughput_bps)

let test_scenario_load_ordering () =
  let low = Scenario.run (quick Scenario.low_utilization) in
  let high = Scenario.run (quick Scenario.high_utilization) in
  Alcotest.(check bool) "high load busier" true
    (high.Scenario.utilization > low.Scenario.utilization)

(* A duration that is not finite and positive is rejected before the
   run starts: a NaN or infinite one would never stop the on/off
   sources, and a zero or negative one would report 0 Mb/s with
   Jain 1. *)
let bad_durations = [ 0.; -1.; Float.infinity; Float.nan ]

let check_rejects_durations run =
  List.iter
    (fun d ->
      let rejected = try ignore (run d); false with Invalid_argument _ -> true in
      Alcotest.(check bool) (Printf.sprintf "duration %g rejected" d) true rejected)
    bad_durations

let test_scenario_run_rejects_bad_duration () =
  check_rejects_durations (fun d ->
      Scenario.run { Scenario.low_utilization with Scenario.duration_s = d })

let test_run_persistent_rejects_bad_duration () =
  check_rejects_durations (fun d ->
      Scenario.run_persistent ~n_flows:2 ~duration_s:d ~spec:Topology.paper_spec ~seed:1 ())

let test_run_zoo_rejects_bad_duration () =
  check_rejects_durations (fun d -> Scenario.run_zoo ~duration_s:d (Topology.Zoo.dumbbell ()))

(* The paper's headline claim (Figure 2): tuned Cubic parameters beat the
   Table 1 defaults on the power metric. *)
let test_tuned_beats_default () =
  let config = { Scenario.high_utilization with Scenario.duration_s = 60. } in
  let run params = Scenario.run ~cc_factory:(fun _ () -> Cubic.make params) config in
  let default = run Cubic.default_params in
  let tuned = run (Cubic.with_knobs ~initial_cwnd:8. ~initial_ssthresh:32. Cubic.default_params) in
  Alcotest.(check bool) "tuned beats default on P_l" true
    (tuned.Scenario.power > default.Scenario.power);
  Alcotest.(check bool) "tuned has lower queueing delay" true
    (tuned.Scenario.queueing_delay_s < default.Scenario.queueing_delay_s)

let test_persistent_run () =
  let r =
    Scenario.run_persistent ~n_flows:20 ~duration_s:30. ~spec:Topology.paper_spec ~seed:1 ()
  in
  Alcotest.(check bool) "near saturation" true (r.Scenario.utilization > 0.9);
  Alcotest.(check int) "all flows reported" 20 (List.length r.Scenario.records)

(* Figure 2c's claim: with long-running flows, a larger beta drains the
   queue (lower queueing delay). *)
let test_beta_lowers_queueing_delay_for_long_flows () =
  let run beta =
    let params = Cubic.with_knobs ~beta Cubic.default_params in
    Scenario.run_persistent
      ~cc_factory:(fun _ () -> Cubic.make params)
      ~n_flows:20 ~duration_s:40. ~spec:Topology.paper_spec ~seed:2 ()
  in
  let small = run 0.1 and large = run 0.7 in
  Alcotest.(check bool) "larger beta, smaller queue" true
    (large.Scenario.queueing_delay_s < small.Scenario.queueing_delay_s)

(* One paper-dumbbell run wired by [Cc_select.wire]: its result and
   the context-server messages it cost. *)
let run_wired select ~path choice (config : Scenario.config) =
  let w =
    Cc_select.wire select ~capacity_bps:config.Scenario.spec.Topology.bottleneck_bw_bps ~path
      choice
  in
  let r =
    Scenario.run ~cc_factory:w.Cc_select.cc_factory
      ~observe:(fun e _ -> w.Cc_select.attach e)
      ~on_conn_end:w.Cc_select.on_conn_end config
  in
  (r, w.Cc_select.messages ())

(* The full practical pipeline (context server + policy + report hooks),
   asserted end-to-end: Phi clients beat blind defaults on P_l. *)
let test_phi_pipeline_improves_power () =
  let config = { Scenario.high_utilization with Scenario.duration_s = 60.; Scenario.seed = 7 } in
  let baseline = Scenario.run config in
  let phi_run, _ =
    run_wired (Cc_select.create ()) ~path:"p" (Cc_select.Policy (Phi.Policy.create ())) config
  in
  Alcotest.(check bool) "phi pipeline beats defaults" true
    (phi_run.Scenario.power > baseline.Scenario.power)

(* Pretrained tables must preserve the Table 3 ordering on a modest
   budget: Remy comfortably above Cubic, Phi at least on par with Remy. *)
let test_pretrained_tables_ordering () =
  let config = { Scenario.table3 with Scenario.duration_s = 40. } in
  let rows = Table3.run ~seeds:[ 11; 12 ] config in
  let find name = List.find (fun (r : Table3.row) -> r.Table3.name = name) rows in
  let obj name = (find name).Table3.summary.Trainer.median_objective in
  Alcotest.(check bool) "remy beats cubic" true (obj "Remy" > obj "Cubic" +. 0.2);
  Alcotest.(check bool) "phi-ideal at least remy" true
    (obj "Remy-Phi-ideal" > obj "Remy" -. 0.05);
  Alcotest.(check bool) "phi-practical at least remy" true
    (obj "Remy-Phi-practical" > obj "Remy" -. 0.05)

(* {2 Sweep} *)

let tiny_grid = { Sweep.ssthresh = [ 16.; 65536. ]; init_w = [ 2.; 16. ]; beta = [ 0.2 ] }

let test_sweep_structure () =
  Alcotest.(check int) "paper grid size" 576 (List.length (Sweep.settings Sweep.paper_grid));
  Alcotest.(check int) "coarse grid size" 48 (List.length (Sweep.settings Sweep.coarse_grid));
  Alcotest.(check int) "beta grid size" 9 (List.length (Sweep.settings Sweep.beta_grid))

let test_sweep_runs_and_finds_optimum () =
  let sweep = Sweep.run (quick Scenario.high_utilization) tiny_grid ~seeds:[ 1; 2 ] in
  Alcotest.(check int) "4 points" 4 (List.length sweep.Sweep.points);
  let best = Sweep.optimal sweep in
  Alcotest.(check bool) "optimum at least default" true
    (best.Sweep.mean.Scenario.power >= sweep.Sweep.default_point.Sweep.mean.Scenario.power);
  List.iter
    (fun p -> Alcotest.(check int) "both seeds" 2 (Array.length p.Sweep.by_seed))
    sweep.Sweep.points

let test_validation_stability () =
  let sweep = Sweep.run (quick Scenario.high_utilization) tiny_grid ~seeds:[ 1; 2; 3 ] in
  let v = Sweep.validate sweep in
  (* Figure 3's claim: the leave-one-out ("common") setting retains most
     of the per-run optimal's advantage over the default. *)
  Alcotest.(check bool) "optimal >= common" true
    (v.Sweep.optimal_power >= v.Sweep.common_power -. 1e-9);
  Alcotest.(check bool) "common beats default" true
    (v.Sweep.common_power > v.Sweep.default_power)

(* {2 Byte-identical replay (golden)} *)

(* Hex-float ([%h]) captures of a reduced figure2a sweep, recorded from
   the pre-refactor event core (boxed binary heap, per-event closures,
   [Stdlib.Queue] links).  The allocation-free core must reproduce every
   output bit — the whole point of keeping exact IEEE division on the
   link and the (priority, seq) tie-break in the heap — and the domain
   pool must not perturb it either, so each config is checked at
   [jobs:1] and [jobs:4]. *)
let golden_grid = { Sweep.ssthresh = [ 2.; 64. ]; init_w = [ 2.; 16. ]; beta = [ 0.2 ] }

(* Rows: throughput, queueing delay, loss rate, power — grid points in
   settings order, then the default point. *)
let golden_low =
  [
    "0x1.821a1e6f50c64p+19 0x1.948393971b91ep-10 0x0p+0 0x1.4dc1a2a5e7926p+2";
    "0x1.727097236ba1ap+20 0x1.a41775bf1b893p-10 0x0p+0 0x1.403a6142fa516p+3";
    "0x1.18c340ab45612p+21 0x1.475caba53ba63p-7 0x0p+0 0x1.cc596fbb6f4ep+3";
    "0x1.92cb23a9f1ef1p+21 0x1.0300b574c94f7p-6 0x0p+0 0x1.3e839afa56ec4p+4";
    "0x1.2051aef0d00abp+21 0x1.aea1e5feb36d6p-5 0x0p+0 0x1.79fbb98405e8p+3";
  ]

let golden_high =
  [
    "0x1.890a01e8ae77ap+19 0x1.3a44206b27c68p-9 0x0p+0 0x1.51f34ce8c3a94p+2";
    "0x1.714922a983d06p+20 0x1.87e7fb1074d72p-9 0x0p+0 0x1.3c5d5007a718ep+3";
    "0x1.d3087e73925ap+20 0x1.dab746cf198a2p-5 0x0p+0 0x1.28687b6dcbddcp+3";
    "0x1.ede21cb2d21ap+20 0x1.ad0bd1b7857d3p-4 0x0p+0 0x1.fd460ecaa2c2ep+2";
    "0x1.93ac45b5116e6p+20 0x1.570557754442ap-3 0x1.a2c2a87c51cap-9 0x1.505d7c8401c56p+2";
  ]

let run_golden config jobs =
  let sweep = Sweep.run ~jobs config golden_grid ~seeds:[ 1; 2 ] in
  List.map
    (fun (p : Sweep.point) ->
      let m = p.Sweep.mean in
      Printf.sprintf "%h %h %h %h" m.Scenario.throughput_bps m.Scenario.queueing_delay_s
        m.Scenario.loss_rate m.Scenario.power)
    (sweep.Sweep.points @ [ sweep.Sweep.default_point ])

let test_golden_low_utilization () =
  let config = { Scenario.low_utilization with Scenario.duration_s = 8. } in
  Alcotest.(check (list string)) "serial replay" golden_low (run_golden config 1);
  Alcotest.(check (list string)) "parallel replay" golden_low (run_golden config 4)

let test_golden_high_utilization () =
  let config = { Scenario.high_utilization with Scenario.duration_s = 12. } in
  Alcotest.(check (list string)) "serial replay" golden_high (run_golden config 1);
  Alcotest.(check (list string)) "parallel replay" golden_high (run_golden config 4)

(* Table 3 under the unified control plane, recorded from the dedicated
   Remy_sender transport immediately before its deletion.  The Remy
   migration onto the shared Phi_tcp.Sender (go-back-N recovery + whisker
   pacing as controller policy) must reproduce every output bit, and the
   pool fan-out over (variant, seed) cells must not perturb it.

   The practical row was re-recorded when the context server moved to
   epoch-batched commits: lookups now see reports coalesced at epoch
   granularity (and the ring-bucketed window), which shifts the
   context-driven variant by a fraction of a percent.  The other three
   rows do not consult reported context and must stay bit-identical. *)
let golden_table3 =
  [
    "Remy-Phi-practical 0x1.9fb2d999bf891p+20 0x1.ae5a6293bab4p-9 0x1.30f647304ceb8p+1 373 753";
    "Remy-Phi-ideal 0x1.a06e095998bc3p+20 0x1.cc04db805388p-10 0x1.31eaf78afd10bp+1 371 0";
    "Remy 0x1.8eb1d30ab60f2p+20 0x1.8c89320aeep-13 0x1.2e23aebe5e3b4p+1 368 0";
    "Cubic 0x1.49dae35e17cd7p+19 0x1.4d9b05b5bad4p-8 0x1.78ae6521f328ap+0 252 0";
  ]

let run_golden_table3 jobs =
  let config = { Scenario.table3 with Scenario.duration_s = 20. } in
  List.map
    (fun (r : Table3.row) ->
      let e = r.Table3.summary in
      Printf.sprintf "%s %h %h %h %d %d" r.Table3.name e.Trainer.median_throughput_bps
        e.Trainer.median_queueing_delay_s e.Trainer.median_objective e.Trainer.connections
        r.Table3.server_messages)
    (Table3.run ~jobs ~seeds:[ 1; 2 ] config)

let test_golden_table3 () =
  Alcotest.(check (list string)) "serial replay" golden_table3 (run_golden_table3 1);
  Alcotest.(check (list string)) "parallel replay" golden_table3 (run_golden_table3 4)

(* Figure 5 (outage detection + localization), recorded with the
   compiled decision plane in place.  The diagnosis pipeline consumes a
   deterministic workload trace, so the detection window, the z-score
   and drop magnitudes, the localization scope and both deficit shares
   must all replay bit-for-bit — and the [run_many] pool fan-out must
   not perturb any of it.  Seed 41 stays below the detection threshold
   (a short shallow dip, not localized); seed 42 is the paper's outage. *)
module Anomaly = Phi_diagnosis.Anomaly
module Localize = Phi_diagnosis.Localize
module Rs = Phi_workload.Request_stream

let golden_figure5 =
  [
    "event=862-867 z=-0x1.1b209e498a7e3p+2 drop=0x1.e71b0cd8edc9ap-7 loc=none ok=false \
     total=0x1.8a97b4p+24 affected=0x1.b74e6p+20 baseline=0x1.c5fed0000000ep+20";
    "event=2340-2460 z=-0x1.5e12e1dbcaf81p+3 drop=0x1.fbcea96015db6p-5 loc=london/as3320 \
     share=0x1.ed26ecdd4704bp-1 own=0x1.e55c5a20762b7p-1 ok=true total=0x1.8a7d6dp+24 \
     affected=0x1.b7a03p+20 baseline=0x1.c5c0efffffff4p+20";
  ]

let summarize_figure5 (r : Figure5.result) =
  let sum = Array.fold_left ( +. ) 0. in
  let event =
    match r.Figure5.events with
    | [] -> "none"
    | e :: _ ->
      Printf.sprintf "%d-%d z=%h drop=%h" e.Anomaly.start_min e.Anomaly.end_min e.Anomaly.min_z
        e.Anomaly.mean_drop
  in
  let where =
    match r.Figure5.localization with
    | None -> "none"
    | Some f ->
      Printf.sprintf "%s/%s share=%h own=%h"
        (Option.value ~default:"*" f.Localize.scope.Rs.metro)
        (Option.value ~default:"*" f.Localize.scope.Rs.isp)
        f.Localize.deficit_share f.Localize.own_drop
  in
  Printf.sprintf "event=%s loc=%s ok=%b total=%h affected=%h baseline=%h" event where
    (Figure5.correctly_localized r)
    (sum r.Figure5.total_series) (sum r.Figure5.affected_series)
    (sum r.Figure5.affected_baseline)

let run_golden_figure5 jobs =
  List.map summarize_figure5 (Figure5.run_many ~jobs ~seeds:[ 41; 42 ] ())

let test_golden_figure5 () =
  Alcotest.(check (list string)) "serial replay" golden_figure5 (run_golden_figure5 1);
  Alcotest.(check (list string)) "parallel replay" golden_figure5 (run_golden_figure5 4)

(* A reduced parking lot (3 islands, 22 senders, 2 s) on the parallel
   engine.  The fingerprint folds every link counter, boundary crossing,
   per-flow progress number and the engines' event counts; the committed
   string is the jobs-1 golden, and runs with 2 and 4 worker domains
   must reproduce it byte for byte — the conservative-window determinism
   contract, asserted end-to-end through real Cubic traffic. *)
let reduced_lot =
  { Parking_lot.default_spec with
    Parking_lot.segments = 3;
    local_pairs = 6;
    long_flows = 4;
    duration_s = 2.0;
  }

let golden_parking_lot = "senders=22 events=2769590 boundary=323 retx=9853 checksum=286945ac"

let test_parking_lot_partitioned_replay () =
  let fp jobs = (Parking_lot.run ~jobs ~spec:reduced_lot ()).Parking_lot.fingerprint in
  Alcotest.(check string) "serial golden" golden_parking_lot (fp 1);
  Alcotest.(check string) "2 domains replay the golden" golden_parking_lot (fp 2);
  Alcotest.(check string) "4 domains replay the golden" golden_parking_lot (fp 4)

let test_parking_lot_traffic_shape () =
  let r = Parking_lot.run ~jobs:2 ~spec:reduced_lot () in
  Alcotest.(check int) "three islands" 3 r.Parking_lot.islands;
  Alcotest.(check (float 0.)) "window = cut delay" reduced_lot.Parking_lot.cut_delay_s
    r.Parking_lot.window_s;
  Alcotest.(check bool) "long flows make progress" true (r.Parking_lot.long_goodput_bps > 0.);
  Alcotest.(check bool) "local flows make progress" true
    (r.Parking_lot.local_goodput_bps > r.Parking_lot.long_goodput_bps);
  Alcotest.(check bool) "traffic crossed the cuts" true (r.Parking_lot.boundary_packets > 0);
  Alcotest.(check int) "one stat per hop" 3 (Array.length r.Parking_lot.hop_stats);
  Array.iter
    (fun (h : Parking_lot.hop_stat) ->
      Alcotest.(check bool) "every hop carried packets" true (h.Parking_lot.delivered > 0))
    r.Parking_lot.hop_stats

(* {2 Algorithm registry (unified control plane)} *)

let test_registry_round_trip () =
  let names = Phi.Cc_algo.names in
  Alcotest.(check (list string)) "five registered algorithms"
    [ "cubic"; "reno"; "vegas"; "remy"; "remy-phi" ]
    names;
  List.iter
    (fun algo ->
      match Phi.Cc_algo.of_name (Phi.Cc_algo.name algo) with
      | Some a ->
        Alcotest.(check string)
          ("of_name round-trips " ^ Phi.Cc_algo.name algo)
          (Phi.Cc_algo.name algo) (Phi.Cc_algo.name a)
      | None -> Alcotest.fail ("of_name missed " ^ Phi.Cc_algo.name algo))
    Phi.Cc_algo.all;
  (* parse_cc is the --cc entry point: case-insensitive, trimmed. *)
  List.iter
    (fun n ->
      Alcotest.(check string) ("parse_cc accepts " ^ n) n
        (Phi.Cc_algo.name (Cc_select.parse_cc ("  " ^ String.uppercase_ascii n ^ " "))))
    names;
  let rejected = try ignore (Cc_select.parse_cc "bogus"); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "unknown name rejected" true rejected

let test_cc_select_builds_every_algorithm () =
  let sel = Cc_select.create () in
  let build = Cc_select.builder sel in
  List.iter
    (fun algo ->
      let cc = build ~ctx:Phi.Context.empty algo in
      Alcotest.(check bool)
        (Phi.Cc_algo.name algo ^ " starts with a usable window")
        true
        (Float.is_finite cc.Phi_tcp.Cc.cwnd && cc.Phi_tcp.Cc.cwnd >= 1.))
    Phi.Cc_algo.all

(* A policy can pick any of the five: the wiring builds what the policy
   learned for the looked-up (empty) context's bucket, at one lookup. *)
let test_policy_wiring_builds_every_algorithm () =
  let select = Cc_select.create () in
  List.iter
    (fun algo ->
      let name = Phi.Cc_algo.name algo in
      let policy = Phi.Policy.create () in
      Phi.Policy.learn policy (Phi.Context.bucketize Phi.Context.empty) algo;
      let w = Cc_select.wire select ~capacity_bps:15e6 ~path:"p" (Cc_select.Policy policy) in
      w.Cc_select.attach (Phi_sim.Engine.create ());
      let cc = w.Cc_select.cc_factory 0 () in
      Alcotest.(check string) (name ^ " built") name cc.Phi_tcp.Cc.name;
      Alcotest.(check int) (name ^ " looked up once") 1 (w.Cc_select.messages ()))
    Phi.Cc_algo.all

(* Quickstart's Phi run (Figure 2b's load, 60 s, seed 7, the default
   policy on path "egress" behind a 15 Mb/s server), recorded in hex
   through the sender-side policy client the wiring replaced:
   throughput, queueing delay, loss rate, power, connections. *)
let golden_policy_run = "0x1.d31340d0c6fe6p+20 0x1.6547c64546fc7p-4 0x0p+0 0x1.021145989bdeep+3 215"

let test_golden_policy_wiring () =
  let config = { Scenario.high_utilization with Scenario.duration_s = 60.; Scenario.seed = 7 } in
  let r, _ =
    run_wired (Cc_select.create ()) ~path:"egress" (Cc_select.Policy (Phi.Policy.create ())) config
  in
  Alcotest.(check string) "replay" golden_policy_run
    (Printf.sprintf "%h %h %h %h %d" r.Scenario.throughput_bps r.Scenario.queueing_delay_s
       r.Scenario.loss_rate r.Scenario.power r.Scenario.connections)

(* Remy-Phi as the algorithm and a policy that learned Remy-Phi for all
   64 buckets take one served path: the same result bit for bit, at the
   same message count. *)
let test_remy_phi_algorithm_is_a_policy () =
  let config = { Scenario.high_utilization with Scenario.duration_s = 10.; Scenario.seed = 3 } in
  let policy = Phi.Policy.create () in
  for code = 0 to Phi.Context.bucket_codes - 1 do
    Phi.Policy.learn policy (Phi.Context.bucket_of_code code) Phi.Cc_algo.Remy_phi
  done;
  let select = Cc_select.create () in
  let capture choice =
    let r, messages = run_wired select ~path:"dumbbell" choice config in
    Alcotest.(check bool) "the server was asked" true (messages > 0);
    Printf.sprintf "%h %h %h %h %h %h %h %h %d %d messages=%d" r.Scenario.throughput_bps
      r.Scenario.queueing_delay_s r.Scenario.delay_s r.Scenario.loss_rate r.Scenario.utilization
      r.Scenario.power r.Scenario.jain r.Scenario.p99_fct_s r.Scenario.connections
      r.Scenario.flows messages
  in
  Alcotest.(check string) "one served path"
    (capture (Cc_select.Algorithm Phi.Cc_algo.Remy_phi))
    (capture (Cc_select.Policy policy))

(* Hex-float captures of every registry algorithm over the low/high
   dumbbell loads (seed 1, 8 s), recorded before the two matrices were
   folded into one: the unified matrix must reproduce every bit, at any
   pool width.  Rows: throughput, queueing delay, loss rate, power,
   connections. *)
let golden_cc_matrix =
  [
    "cubic/low 0x1.144a895cd49fp+21 0x1.25ecca37ceb21p-4 0x0p+0 0x1.469b6a45d60f5p+3 20";
    "cubic/high 0x1.a77ba0846af9ep+20 0x1.2f74f258899a5p-3 0x0p+0 0x1.745034cea838dp+2 26";
    "reno/low 0x1.f3c078bf68038p+20 0x1.37a8d8ca431aap-4 0x0p+0 0x1.21b97ed99d9d6p+3 19";
    "reno/high 0x1.d6ba6a51ba31fp+20 0x1.0ae6d87fdeba3p-3 0x0p+0 0x1.b8338138e353dp+2 27";
    "vegas/low 0x1.8eb773ad73f04p+20 0x1.1092488d910afp-8 0x0p+0 0x1.530112424eb44p+3 16";
    "vegas/high 0x1.8427fc74a4252p+20 0x1.f2d17630ba9bp-8 0x0p+0 0x1.42cbeccedac17p+3 24";
    "remy/low 0x1.a5ccf7583f343p+21 0x1.4efc0dd11d1aep-8 0x0p+0 0x1.646de0a47697cp+4 24";
    "remy/high 0x1.8efe4ff433117p+20 0x1.ab100de4f3004p-5 0x0p+0 0x1.02ba0990ba359p+3 24";
    "remy-phi/low 0x1.a47fd2713c79ep+21 0x1.8a0d51ebd8db1p-7 0x0p+0 0x1.542aad1711d5bp+4 24";
    "remy-phi/high 0x1.9c262295847cfp+20 0x1.9883c7dfeda56p-5 0x0p+0 0x1.0e48f422e66d9p+3 25";
  ]

let test_cc_matrix_covers_registry () =
  let capture jobs =
    List.map
      (fun (r : Cc_matrix.row) ->
        let m = r.Cc_matrix.mean in
        Printf.sprintf "%s/%s %h %h %h %h %d" r.Cc_matrix.algorithm r.Cc_matrix.cell
          m.Scenario.throughput_bps m.Scenario.queueing_delay_s m.Scenario.loss_rate
          m.Scenario.power m.Scenario.connections)
      (Cc_matrix.run ~jobs ~duration_s:8. ~seeds:[ 1 ] Cc_matrix.paper_cells)
  in
  let cells = capture 4 in
  Alcotest.(check int) "5 algorithms x 2 workloads" 10 (List.length cells);
  List.iter
    (fun name ->
      List.iter
        (fun workload ->
          let prefix = Printf.sprintf "%s/%s " name workload in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s ran connections" name workload)
            true
            (List.exists
               (fun c ->
                 String.starts_with ~prefix c && not (String.ends_with ~suffix:" 0" c))
               cells))
        [ "low"; "high" ])
    Phi.Cc_algo.names;
  (* Pool fan-out must not perturb the cells. *)
  Alcotest.(check (list string)) "parallel replay" golden_cc_matrix cells;
  Alcotest.(check (list string)) "serial replay" golden_cc_matrix (capture 1)

(* {2 Incremental deployment (Figure 4)} *)

let test_incremental_modified_benefit () =
  let config = { (quick Scenario.low_utilization) with Scenario.duration_s = 60. } in
  let params = Cubic.with_knobs ~initial_cwnd:16. ~initial_ssthresh:64. Cubic.default_params in
  let r = Incremental.run ~params_modified:params config in
  Alcotest.(check bool) "both groups ran" true
    (r.Incremental.modified.Incremental.connections > 0
    && r.Incremental.unmodified.Incremental.connections > 0);
  (* The paper's Figure 4: modified senders see a better power metric. *)
  Alcotest.(check bool) "modified senders benefit" true
    (r.Incremental.modified.Incremental.power > r.Incremental.unmodified.Incremental.power)

let test_incremental_fraction_extremes () =
  let config = quick Scenario.low_utilization in
  let params = Cubic.default_params in
  let r0 = Incremental.run ~fraction_modified:0. ~params_modified:params config in
  Alcotest.(check int) "nobody modified" 0 r0.Incremental.modified.Incremental.connections;
  let r1 = Incremental.run ~fraction_modified:1. ~params_modified:params config in
  Alcotest.(check int) "nobody unmodified" 0 r1.Incremental.unmodified.Incremental.connections

(* {2 Table 3 (reduced budget)} *)

let test_table3_rows_and_overhead () =
  let config = { Scenario.table3 with Scenario.duration_s = 20. } in
  let rows = Table3.run ~seeds:[ 1 ] config in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  let names = List.map (fun r -> r.Table3.name) rows in
  Alcotest.(check (list string)) "paper order"
    [ "Remy-Phi-practical"; "Remy-Phi-ideal"; "Remy"; "Cubic" ]
    names;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Table3.name ^ " has connections")
        true (r.Table3.summary.Trainer.connections > 0))
    rows;
  let practical = List.hd rows in
  let connections = practical.Table3.summary.Trainer.connections in
  (* Minimal overhead: two messages per completed connection, plus the
     lone lookup of each connection still in flight when the run ends. *)
  Alcotest.(check bool) "about 2 messages per connection" true
    (practical.Table3.server_messages >= 2 * connections
    && practical.Table3.server_messages <= (2 * connections) + 16)

(* {2 Sharing (Section 2.1)} *)

let test_sharing_experiment_shape () =
  let config =
    { Phi_workload.Cloud_trace.default_config with
      Phi_workload.Cloud_trace.flows_per_minute = 5000.;
      horizon_minutes = 5;
      n_subnets = 2000;
    }
  in
  let r = Sharing_experiment.run ~config ~seed:1 () in
  Alcotest.(check bool) "sampling observes a subset" true
    (r.Sharing_experiment.sampled_flows < r.Sharing_experiment.total_flows);
  let frac k = List.assoc k r.Sharing_experiment.ccdf in
  Alcotest.(check bool) "many flows share with >= 5" true (frac 5 > 0.2);
  Alcotest.(check bool) "ccdf decreasing" true (frac 5 >= frac 100)

(* The WAN matrix: algorithm x topology x dynamics cells, constructed
   from name tuples inside pool workers, jobs-invariant.  The hex-float
   captures were recorded before the two matrices were folded into one.
   Rows: throughput, delay, queueing delay, loss rate, power, Jain, p99
   FCT, connections. *)
let golden_wan_matrix =
  [
    "cubic/dumbbell/steady 0x1.76f0fa83c6dbap+20 0x1.7bbfe9c7dc391p-3 0x1.2232da52a4179p-5 \
     0x0p+0 0x1.09095c2f2fae9p+3 0x1.9accc538bba05p-1 0x1.032919b655523p+1 23";
    "cubic/dumbbell/flap 0x1.5fd8fffca195dp+20 0x1.906537b6508d2p-3 0x1.74c8120c7567ep-5 \
     0x1.8be82fa0be83p-4 0x1.aa2cd9cda3a73p+2 0x1.636e130203902p-1 0x1.2bb3854a27cedp+1 19";
    "cubic/dumbbell/incast 0x1.59a91f12aeffcp+20 0x1.b5965607cb9a8p-3 0x1.04c645a930ceap-4 \
     0x0p+0 0x1.a81650ab39bd6p+2 0x1.63d3c8752b519p-1 0x1.2e1a076b1a7bap+1 23";
    "cubic/parking_lot/steady 0x1.4e4bdc1c1b626p+23 0x1.99696567f4d26p-5 0x1.787495906cb74p-6 \
     0x1.f43b1d6c36717p-6 0x1.a8fc791dda4f4p+7 0x1.8389bacbdb331p-1 0x1.299c10bcb1271p+0 93";
    "cubic/parking_lot/flap 0x1.31020d68f5476p+23 0x1.74cf34ea699d8p-5 0x1.2f403495564d6p-6 \
     0x1.250690d3e24dap-7 0x1.b34df3a122c09p+7 0x1.7bb29239a4047p-1 0x1.bc7dded4fb3aap+0 89";
    "cubic/parking_lot/incast 0x1.4de9ec1b24f5p+23 0x1.b547329e1a81cp-5 0x1.b0302ffcb815fp-6 \
     0x1.13c393aa05fd3p-5 0x1.8c2a098e4bc5ep+7 0x1.7fcb6b5e3248bp-1 0x1.7ffaaabe82c84p+0 92";
    "cubic/wan/steady 0x1.ebb787488e69ap+21 0x1.1acc54130527ap-3 0x1.07898a10fe3b1p-6 \
     0x1.5b3241ac10a54p-7 0x1.cdcc5a54f7a07p+4 0x1.1911e5bcc9992p-1 0x1.c73e61e050d1cp+0 55";
    "cubic/wan/flap 0x1.c4f2335053183p+21 0x1.1aa3e4e62d5acp-3 0x1.064610aa3fd3cp-6 \
     0x1.84144934b30bbp-6 0x1.a3fe225e972fbp+4 0x1.169896225fd19p-1 0x1.c89981dbef549p+0 54";
    "cubic/wan/incast 0x1.ebe1245f6f12ap+21 0x1.1a37064fc61bbp-3 0x1.02df1bf705db9p-6 \
     0x1.5ab800834d415p-7 0x1.cee99262ee5d4p+4 0x1.1911e5bcc9992p-1 0x1.c73e61e050d1cp+0 55";
  ]

let test_wan_matrix_structure_and_jobs_invariance () =
  let algorithms = [ List.hd Phi.Cc_algo.all ] in
  let run ?(topologies = Cc_matrix.default_topologies) jobs =
    Cc_matrix.run ~jobs ~algorithms ~duration_s:6. ~seeds:[ 1 ]
      (Cc_matrix.zoo_cells ~aqm:Scenario.Drop_tail ~topologies
         ~dynamics:Cc_matrix.default_dynamics)
  in
  let capture rows =
    List.map
      (fun (r : Cc_matrix.row) ->
        let m = r.Cc_matrix.mean in
        Printf.sprintf "%s/%s %h %h %h %h %h %h %h %d" r.Cc_matrix.algorithm r.Cc_matrix.cell
          m.Scenario.throughput_bps m.Scenario.delay_s m.Scenario.queueing_delay_s
          m.Scenario.loss_rate m.Scenario.power m.Scenario.jain m.Scenario.p99_fct_s
          m.Scenario.connections)
      rows
  in
  let rows = run 4 in
  Alcotest.(check int) "1 algorithm x 3 topologies x 3 regimes" 9 (List.length rows);
  List.iter
    (fun (r : Cc_matrix.row) ->
      let cell = r.Cc_matrix.algorithm ^ "/" ^ r.Cc_matrix.cell and m = r.Cc_matrix.mean in
      Alcotest.(check bool) (cell ^ ": connections") true (m.Scenario.connections > 0);
      Alcotest.(check bool) (cell ^ ": jain in (0,1]") true
        (m.Scenario.jain > 0. && m.Scenario.jain <= 1.);
      Alcotest.(check bool) (cell ^ ": p99 fct sane") true
        (m.Scenario.p99_fct_s > 0. && m.Scenario.p99_fct_s <= 6.);
      Alcotest.(check bool) (cell ^ ": pareto point") true
        (m.Scenario.throughput_bps > 0. && m.Scenario.delay_s > 0.))
    rows;
  Alcotest.(check (list string)) "parallel replay" golden_wan_matrix (capture rows);
  Alcotest.(check (list string)) "serial replay" golden_wan_matrix (capture (run 1));
  Alcotest.check_raises "unknown topology fails fast"
    (Invalid_argument "Zoo.by_name: unknown topology \"ring\"") (fun () ->
      ignore (run ~topologies:[ "ring" ] 1))

(* {2 The generalized scenario plane (run_zoo)} *)

(* Every topology x dynamics x AQM corner produces a sane cell: this is
   the routing smoke test for the zoo (incast and flash-crowd transport
   must deliver on every topology, including the parking lot's
   directional chain). *)
let test_run_zoo_matrix_smoke () =
  List.iter
    (fun topology ->
      List.iter
        (fun regime ->
          let zoo = Topology.Zoo.by_name topology in
          let cell = Printf.sprintf "%s/%s" topology regime in
          let r =
            Scenario.run_zoo
              ~dynamics:(Dynamics.by_name regime)
              ~aqm:(if regime = "steady" then Scenario.Red_ecn else Scenario.Drop_tail)
              ~duration_s:6. ~seed:3 zoo
          in
          Alcotest.(check bool) (cell ^ ": connections completed") true (r.Scenario.z_connections > 0);
          Alcotest.(check bool) (cell ^ ": throughput positive") true (r.Scenario.z_throughput_bps > 0.);
          Alcotest.(check bool) (cell ^ ": jain in (0,1]") true
            (r.Scenario.z_jain > 0. && r.Scenario.z_jain <= 1.);
          Alcotest.(check bool) (cell ^ ": p99 fct sane") true
            (r.Scenario.z_p99_fct_s > 0. && r.Scenario.z_p99_fct_s <= 6.);
          Alcotest.(check bool) (cell ^ ": loss rate in [0,1]") true
            (r.Scenario.z_loss_rate >= 0. && r.Scenario.z_loss_rate <= 1.);
          Alcotest.(check bool) (cell ^ ": utilization in [0,1]") true
            (r.Scenario.z_utilization >= 0. && r.Scenario.z_utilization <= 1.);
          Alcotest.(check bool) (cell ^ ": power non-negative") true (r.Scenario.z_power >= 0.);
          Alcotest.(check bool) (cell ^ ": delay covers base rtt") true
            (r.Scenario.z_delay_s >= r.Scenario.z_queueing_delay_s))
        Dynamics.names)
    Topology.Zoo.names

(* A cell is a pure function of its parameters: replaying one gives
   bit-identical floats even under scripted dynamics. *)
let test_run_zoo_deterministic () =
  let cell () =
    Scenario.run_zoo ~dynamics:Dynamics.default_flap ~aqm:Scenario.Red ~duration_s:8. ~seed:11
      (Topology.Zoo.wan ())
  in
  let a = cell () and b = cell () in
  let same name f = Alcotest.(check string) name (Printf.sprintf "%h" (f a)) (Printf.sprintf "%h" (f b)) in
  same "throughput" (fun r -> r.Scenario.z_throughput_bps);
  same "queueing delay" (fun r -> r.Scenario.z_queueing_delay_s);
  same "jain" (fun r -> r.Scenario.z_jain);
  same "p99 fct" (fun r -> r.Scenario.z_p99_fct_s);
  same "power" (fun r -> r.Scenario.z_power);
  Alcotest.(check int) "connections" a.Scenario.z_connections b.Scenario.z_connections

(* The regimes bite: a flash crowd completes more connections than the
   steady baseline, and scripted dynamics perturb the trajectory. *)
let test_run_zoo_dynamics_bite () =
  let run dynamics =
    Scenario.run_zoo ~dynamics ~duration_s:10. ~seed:5 (Topology.Zoo.dumbbell ())
  in
  let steady = run Dynamics.steady in
  let crowd = run Dynamics.default_flash_crowd in
  let extra_records =
    List.filter
      (fun r -> r.Phi_tcp.Flow.source_index >= crowd.Scenario.z_flows)
      crowd.Scenario.z_records
  in
  Alcotest.(check bool) "flash crowd sources complete connections" true
    (List.length extra_records > 0);
  Alcotest.(check bool) "no crowd connection starts before the scripted instant" true
    (List.for_all (fun r -> r.Phi_tcp.Flow.started_at >= 5.) extra_records);
  let jitter = run Dynamics.default_jitter in
  Alcotest.(check bool) "jitter perturbs the run" true
    (jitter.Scenario.z_throughput_bps <> steady.Scenario.z_throughput_bps);
  let flap = run Dynamics.default_flap in
  Alcotest.(check bool) "flap perturbs the run" true
    (flap.Scenario.z_throughput_bps <> steady.Scenario.z_throughput_bps)

let test_dynamics_registry () =
  List.iter
    (fun n -> Alcotest.(check string) n n (Dynamics.name (Dynamics.by_name n)))
    Dynamics.names;
  List.iter
    (fun n -> Alcotest.(check string) n n (Scenario.aqm_name (Scenario.aqm_by_name n)))
    Scenario.aqm_names;
  Alcotest.check_raises "unknown regime"
    (Invalid_argument "Dynamics.by_name: unknown regime \"nope\"") (fun () ->
      ignore (Dynamics.by_name "nope"))

(* {2 Priority (Section 3.3)} *)

(* Hex-float capture of the seed-1 run, recorded while the experiment
   still ran its own persistent-flow loop: every weight/share pair, then
   the entity, reference, competitor and competitor-reference
   aggregates. *)
let golden_priority =
  "0x1.2492492492492p+1/0x1.bf2bp+21 0x1.2492492492492p-1/0x1.c426p+19 \
   0x1.2492492492492p-1/0x1.c426p+19 0x1.2492492492492p-1/0x1.bf12p+19 | 0x1.88814p+22 \
   0x1.8c504p+22 0x1.0582ep+23 0x1.039b6p+23"

let test_priority_differentiation_and_friendliness () =
  let r = Priority_experiment.run ~spec:Topology.paper_spec ~seed:1 () in
  Alcotest.(check string) "bit-exact replay" golden_priority
    (String.concat " "
       (List.map
          (fun (f : Priority_experiment.flow_share) ->
            Printf.sprintf "%h/%h" f.Priority_experiment.weight f.Priority_experiment.throughput_bps)
          r.Priority_experiment.entity_flows)
    ^ Printf.sprintf " | %h %h %h %h" r.Priority_experiment.entity_aggregate_bps
        r.Priority_experiment.reference_aggregate_bps
        r.Priority_experiment.competitor_aggregate_bps
        r.Priority_experiment.competitor_reference_bps);
  (match r.Priority_experiment.entity_flows with
  | { Priority_experiment.throughput_bps = hd_thr; _ } :: rest ->
    let bulk_mean =
      Phi_util.Stats.mean
        (Array.of_list (List.map (fun f -> f.Priority_experiment.throughput_bps) rest))
    in
    Alcotest.(check bool) "HD flow gets a multiple of bulk" true (hd_thr > 2. *. bulk_mean)
  | [] -> Alcotest.fail "no entity flows");
  (* Ensemble friendliness: within 30% of what k standard flows get. *)
  let ratio =
    r.Priority_experiment.entity_aggregate_bps /. r.Priority_experiment.reference_aggregate_bps
  in
  Alcotest.(check bool) "ensemble tcp-friendly" true (ratio > 0.7 && ratio < 1.3)

(* {2 Prediction and adaptation} *)

let test_predict_experiment_beats_global () =
  let r = Predict_experiment.run ~seed:1 () in
  Alcotest.(check bool) "hierarchical beats global baseline" true
    (r.Predict_experiment.hierarchical_mape < r.Predict_experiment.global_mape);
  Alcotest.(check bool) "mos examples ordered" true
    (match r.Predict_experiment.example_mos with
    | (_, good) :: (_, mid) :: (_, bad) :: _ -> good > mid && mid > bad
    | _ -> false)

let test_adaptation_experiment () =
  let r = Adaptation_experiment.run ~seed:1 () in
  let j = r.Adaptation_experiment.jitter in
  Alcotest.(check bool) "informed buffer smaller" true
    (j.Adaptation_experiment.buffer_saving_ms > 0.);
  Alcotest.(check bool) "late rate still low" true
    (j.Adaptation_experiment.informed_late_fraction < 0.08);
  let d = r.Adaptation_experiment.dupack in
  Alcotest.(check bool) "threshold raised" true
    (d.Adaptation_experiment.recommended_threshold > 3);
  Alcotest.(check bool) "fewer spurious retransmits" true
    (d.Adaptation_experiment.informed_spurious_fraction
    < d.Adaptation_experiment.standard_spurious_fraction)

(* {2 One runner, one record} *)

let hex = Printf.sprintf "%h"

(* [run] and [run_persistent] fill the figures that only zoo cells used
   to carry: one flow per sender, delay = base RTT + queueing delay bit
   for bit, and Jain within (0, 1]. *)
let test_paper_runs_fill_the_record () =
  let spec = Topology.paper_spec in
  let check name n (r : Scenario.result) =
    Alcotest.(check int) (name ^ ": flows") n r.Scenario.flows;
    Alcotest.(check string) (name ^ ": delay = rtt + queueing delay")
      (hex (spec.Topology.rtt_s +. r.Scenario.queueing_delay_s))
      (hex r.Scenario.delay_s);
    Alcotest.(check bool) (name ^ ": jain in (0, 1]") true
      (r.Scenario.jain > 0. && r.Scenario.jain <= 1.)
  in
  check "run" spec.Topology.n (Scenario.run (quick Scenario.low_utilization));
  check "run_persistent" 20 (Scenario.run_persistent ~n_flows:20 ~duration_s:10. ~spec ~seed:1 ())

let show_records =
  List.map (fun (c : Phi_tcp.Flow.conn_stats) ->
      Printf.sprintf "%d/%d/%d/%h/%h" c.Phi_tcp.Flow.flow c.Phi_tcp.Flow.source_index
        c.Phi_tcp.Flow.bytes c.Phi_tcp.Flow.started_at c.Phi_tcp.Flow.finished_at)

(* [run_zoo] is [run_zoo_cell]'s projection, field for field and bit
   for bit, here on a flap cell. *)
let test_run_zoo_projects_the_record () =
  let zoo = Topology.Zoo.wan () in
  let r = Scenario.run_zoo_cell ~dynamics:Dynamics.default_flap ~duration_s:8. ~seed:11 zoo in
  let z = Scenario.run_zoo ~dynamics:Dynamics.default_flap ~duration_s:8. ~seed:11 zoo in
  let same name a b = Alcotest.(check string) name (hex a) (hex b) in
  same "throughput" r.Scenario.throughput_bps z.Scenario.z_throughput_bps;
  same "queueing delay" r.Scenario.queueing_delay_s z.Scenario.z_queueing_delay_s;
  same "delay" r.Scenario.delay_s z.Scenario.z_delay_s;
  same "loss" r.Scenario.loss_rate z.Scenario.z_loss_rate;
  same "utilization" r.Scenario.utilization z.Scenario.z_utilization;
  same "power" r.Scenario.power z.Scenario.z_power;
  same "jain" r.Scenario.jain z.Scenario.z_jain;
  same "p99 fct" r.Scenario.p99_fct_s z.Scenario.z_p99_fct_s;
  Alcotest.(check int) "connections" r.Scenario.connections z.Scenario.z_connections;
  Alcotest.(check int) "flows" r.Scenario.flows z.Scenario.z_flows;
  Alcotest.(check (list string)) "records" (show_records r.Scenario.records)
    (show_records z.Scenario.z_records)

(* {2 The seed mean} *)

let float_fields : (string * (Scenario.result -> float)) list =
  let open Scenario in
  [
    ("throughput", fun r -> r.throughput_bps);
    ("queueing delay", fun r -> r.queueing_delay_s);
    ("delay", fun r -> r.delay_s);
    ("loss", fun r -> r.loss_rate);
    ("utilization", fun r -> r.utilization);
    ("power", fun r -> r.power);
    ("jain", fun r -> r.jain);
    ("p99 fct", fun r -> r.p99_fct_s);
  ]

let check_same_result name (a : Scenario.result) (b : Scenario.result) =
  List.iter
    (fun (field, get) -> Alcotest.(check string) (name ^ ": " ^ field) (hex (get a)) (hex (get b)))
    float_fields;
  Alcotest.(check int) (name ^ ": connections") a.Scenario.connections b.Scenario.connections;
  Alcotest.(check int) (name ^ ": flows") a.Scenario.flows b.Scenario.flows;
  Alcotest.(check (list string)) (name ^ ": records") (show_records a.Scenario.records)
    (show_records b.Scenario.records)

(* A one-seed mean is its seed bit for bit; over several seeds every
   float is the seeds' Stats.mean, the connections sum, and the records
   pool in seed order. *)
let test_scenario_mean () =
  let config = { Scenario.low_utilization with Scenario.duration_s = 10. } in
  let by_seed = Array.map (fun seed -> Scenario.run { config with Scenario.seed }) [| 1; 2; 3 |] in
  check_same_result "one seed" by_seed.(0) (Scenario.mean [| by_seed.(0) |]);
  let m = Scenario.mean by_seed in
  List.iter
    (fun (field, get) ->
      Alcotest.(check string) ("mean " ^ field)
        (hex (Phi_util.Stats.mean (Array.map get by_seed)))
        (hex (get m)))
    float_fields;
  Alcotest.(check int) "connections sum"
    (Array.fold_left (fun n r -> n + r.Scenario.connections) 0 by_seed)
    m.Scenario.connections;
  Alcotest.(check int) "connections count the records" m.Scenario.connections
    (List.length m.Scenario.records);
  Alcotest.(check (list string)) "records in seed order"
    (List.concat_map (fun r -> show_records r.Scenario.records) (Array.to_list by_seed))
    (show_records m.Scenario.records);
  Alcotest.(check int) "flows" by_seed.(0).Scenario.flows m.Scenario.flows;
  Alcotest.check_raises "no seeds" (Invalid_argument "Scenario.mean: no seeds") (fun () ->
      ignore (Scenario.mean [||]))

let test_sweep_point_mean () =
  let config = { Scenario.high_utilization with Scenario.duration_s = 8. } in
  let grid = { Sweep.ssthresh = [ 16. ]; init_w = [ 2. ]; beta = [ 0.2 ] } in
  let sweep = Sweep.run ~jobs:1 config grid ~seeds:[ 1; 2 ] in
  List.iter
    (fun (p : Sweep.point) ->
      check_same_result "sweep point" (Scenario.mean p.Sweep.by_seed) p.Sweep.mean)
    (sweep.Sweep.points @ [ sweep.Sweep.default_point ])

(* The shown headers and exported keys of the seed-mean rows, as the
   figures and reports have always carried them: changing a row record
   must not rename a table column, a CSV column or a report key. *)
let test_printer_keys_pinned () =
  let check name columns ~headers ~keys =
    Alcotest.(check (list string)) (name ^ " headers") headers
      (List.filter_map (fun c -> c.Columns.header) columns);
    Alcotest.(check (list string)) (name ^ " keys") keys (Columns.keys columns)
  in
  let metric_keys = [ "mean_throughput_bps"; "mean_queueing_delay_s"; "mean_loss_rate"; "mean_power" ] in
  let metric_headers = [ "thr Mbps"; "qdelay ms"; "loss"; "power P_l" ] in
  check "sweep" Printers.sweep_columns
    ~headers:("" :: "ssthresh/init/beta" :: metric_headers)
    ~keys:([ "marker"; "params"; "ssthresh"; "init_cwnd"; "beta" ] @ metric_keys);
  check "longrun" Printers.longrun_columns ~headers:("beta" :: metric_headers)
    ~keys:("beta" :: metric_keys);
  check "matrix" Printers.matrix_columns
    ~headers:
      [
        "algorithm"; "cell"; "aqm"; "thr Mbps"; "delay ms"; "loss"; "power P_l"; "jain"; "p99 fct s";
        "conns";
      ]
    ~keys:
      [
        "algorithm";
        "cell";
        "aqm";
        "throughput_bps";
        "delay_s";
        "queueing_delay_s";
        "loss_rate";
        "power";
        "jain";
        "p99_fct_s";
        "connections";
      ]

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* A dynamics parameter out of range, NaN included, is rejected before
   the topology is built, with the field named. *)
let dynamics_rejected (label, dynamics, field) =
  ( "run_zoo rejects " ^ label,
    `Quick,
    fun () ->
      let built = ref false in
      match
        Scenario.run_zoo ~dynamics ~duration_s:10.
          ~observe:(fun _ _ -> built := true)
          (Topology.Zoo.dumbbell ())
      with
      | _ -> Alcotest.failf "%s: the run went ahead" label
      | exception Invalid_argument msg ->
        Alcotest.(check bool) (Printf.sprintf "%S names %s" msg field) true (contains ~needle:field msg);
        Alcotest.(check bool) "rejected before the topology was built" false !built )

let bad_dynamics =
  [
    ( "an incast with a NaN period",
      Dynamics.Incast { period_s = Float.nan; fan_in = 8; burst_segments = 64 },
      "period_s" );
    ( "an incast with an infinite period",
      Dynamics.Incast { period_s = Float.infinity; fan_in = 8; burst_segments = 64 },
      "period_s" );
    ("a flap with a NaN down time", Dynamics.Link_flap { period_s = 4.; down_s = Float.nan }, "down_s");
    ( "a jitter with a NaN magnitude",
      Dynamics.Rtt_jitter { period_s = 0.5; magnitude = Float.nan },
      "magnitude" );
    ( "a flash crowd with a NaN start",
      Dynamics.Flash_crowd { at_frac = Float.nan; multiplier = 3 },
      "at_frac" );
  ]

let suite =
  [
    ("scenario run basics", `Quick, test_scenario_run_basics);
    ("scenario deterministic", `Quick, test_scenario_deterministic);
    ("scenario seed sensitivity", `Quick, test_scenario_seed_changes_outcome);
    ("scenario load ordering", `Quick, test_scenario_load_ordering);
    ("tuned beats default (headline)", `Slow, test_tuned_beats_default);
    ("persistent run", `Quick, test_persistent_run);
    ("beta drains queue (fig 2c)", `Slow, test_beta_lowers_queueing_delay_for_long_flows);
    ("phi pipeline beats defaults", `Slow, test_phi_pipeline_improves_power);
    ("pretrained table ordering", `Slow, test_pretrained_tables_ordering);
    ("sweep structure", `Quick, test_sweep_structure);
    ("sweep finds optimum", `Slow, test_sweep_runs_and_finds_optimum);
    ("validation stability (fig 3)", `Slow, test_validation_stability);
    ("golden replay low (bit-exact)", `Slow, test_golden_low_utilization);
    ("golden replay high (bit-exact)", `Slow, test_golden_high_utilization);
    ("golden replay table 3 (bit-exact)", `Slow, test_golden_table3);
    ("golden replay figure 5 (bit-exact)", `Slow, test_golden_figure5);
    ("parking lot partitioned replay (bit-exact)", `Slow, test_parking_lot_partitioned_replay);
    ("parking lot traffic shape", `Slow, test_parking_lot_traffic_shape);
    ("registry round trip and parse_cc", `Quick, test_registry_round_trip);
    ("cc_select builds every algorithm", `Quick, test_cc_select_builds_every_algorithm);
    ("cc matrix covers registry", `Slow, test_cc_matrix_covers_registry);
    ("wan matrix structure and jobs invariance", `Slow, test_wan_matrix_structure_and_jobs_invariance);
    ("incremental benefit (fig 4)", `Slow, test_incremental_modified_benefit);
    ("incremental extremes", `Quick, test_incremental_fraction_extremes);
    ("table 3 rows and overhead", `Slow, test_table3_rows_and_overhead);
    ("run_zoo matrix smoke (all cells)", `Slow, test_run_zoo_matrix_smoke);
    ("run_zoo deterministic", `Slow, test_run_zoo_deterministic);
    ("run_zoo dynamics bite", `Slow, test_run_zoo_dynamics_bite);
    ("dynamics and aqm registries", `Quick, test_dynamics_registry);
    ("sharing experiment (s2.1)", `Quick, test_sharing_experiment_shape);
    ("priority differentiation (s3.3)", `Slow, test_priority_differentiation_and_friendliness);
    ("prediction beats global (s3.5)", `Quick, test_predict_experiment_beats_global);
    ("adaptation informed (s3.2)", `Quick, test_adaptation_experiment);
    ("scenario run rejects bad duration", `Quick, test_scenario_run_rejects_bad_duration);
    ("run_persistent rejects bad duration", `Quick, test_run_persistent_rejects_bad_duration);
    ("run_zoo rejects bad duration", `Quick, test_run_zoo_rejects_bad_duration);
    ("run and run_persistent fill the record", `Quick, test_paper_runs_fill_the_record);
    ("run_zoo projects the record", `Quick, test_run_zoo_projects_the_record);
    ("scenario mean", `Quick, test_scenario_mean);
    ("sweep point mean is the scenario mean", `Quick, test_sweep_point_mean);
    ("printer headers and keys pinned", `Quick, test_printer_keys_pinned);
    ("policy wiring builds every algorithm", `Quick, test_policy_wiring_builds_every_algorithm);
    ("golden replay policy wiring (bit-exact)", `Slow, test_golden_policy_wiring);
    ("remy-phi algorithm and policy share a path", `Quick, test_remy_phi_algorithm_is_a_policy);
  ]
  @ List.map dynamics_rejected bad_dynamics
