(* Quickstart: the smallest end-to-end Phi deployment.

   Eight senders share a 15 Mb/s bottleneck (the paper's Figure 1
   dumbbell).  First they run stock TCP Cubic; then they run the same
   workload as Phi clients: every connection asks the context server for
   the current network weather, picks Cubic parameters via the policy,
   and reports its measurements back when it finishes.

   Run with: dune exec examples/quickstart.exe *)

module Topology = Phi_net.Topology
module Scenario = Phi_experiments.Scenario
module Cc_select = Phi_experiments.Cc_select

let describe name (r : Scenario.result) =
  Printf.printf "%-12s %5.2f Mbps throughput | %6.1f ms queueing delay | %5.2f%% loss | P_l %.2f\n"
    name
    (r.Scenario.throughput_bps /. 1e6)
    (1000. *. r.Scenario.queueing_delay_s)
    (100. *. r.Scenario.loss_rate)
    r.Scenario.power

let () =
  let config =
    { Scenario.high_utilization with Scenario.duration_s = 60.; Scenario.seed = 7 }
  in

  (* 1. Baseline: every connection starts blind, with the Table 1
     defaults (a 65536-segment slow-start threshold!). *)
  let baseline = Scenario.run config in
  describe "default" baseline;

  (* 2. Phi: a per-domain context server plus a parameter policy.  The
     policy here is the built-in heuristic; a production deployment would
     populate it from sweeps (see Phi.Policy.learn). *)
  let phi_run =
    let w =
      Cc_select.wire (Cc_select.create ())
        ~capacity_bps:config.Scenario.spec.Topology.bottleneck_bw_bps ~path:"egress"
        (Cc_select.Policy (Phi.Policy.create ()))
    in
    Scenario.run ~cc_factory:w.Cc_select.cc_factory
      ~observe:(fun engine _ -> w.Cc_select.attach engine)
      ~on_conn_end:w.Cc_select.on_conn_end config
  in
  describe "phi" phi_run;

  let better = phi_run.Scenario.power > baseline.Scenario.power in
  Printf.printf "\nPhi %s the power metric (%.2f -> %.2f)\n"
    (if better then "improved" else "did not improve")
    baseline.Scenario.power phi_run.Scenario.power;
  Sanitize.check ()
