module Topology = Phi_net.Topology
module Pool = Phi_runner.Pool

type row = { name : string; summary : Trainer.eval_result; server_messages : int }

let paper_rows =
  [
    ("Remy-Phi-practical", 1.93, 5.6, 2.52);
    ("Remy-Phi-ideal", 1.97, 3.0, 2.56);
    ("Remy", 1.45, 1.7, 2.26);
    ("Cubic", 1.03, 9.3, 1.87);
  ]

(* The four rows: three registry algorithms wired by Cc_select (the
   practical row is Remy-Phi's context-server protocol), and the
   training-time oracle feeding Remy-Phi live bottleneck utilization. *)
let variants =
  [
    ("Remy-Phi-practical", `Registry Phi.Cc_algo.Remy_phi);
    ("Remy-Phi-ideal", `Ideal);
    ("Remy", `Registry Phi.Cc_algo.Remy);
    ("Cubic", `Registry (Phi.Cc_algo.Cubic Phi_tcp.Cubic.default_params));
  ]

(* One seeded run of one row: (records, context-server messages). *)
let run_variant select (config : Scenario.config) variant =
  match variant with
  | `Registry algo ->
    let w =
      Cc_select.wire select ~capacity_bps:config.Scenario.spec.Topology.bottleneck_bw_bps
        ~path:"dumbbell" (Cc_select.Algorithm algo)
    in
    let r =
      Scenario.run ~cc_factory:w.Cc_select.cc_factory
        ~observe:(fun e _ -> w.Cc_select.attach e)
        ~on_conn_end:w.Cc_select.on_conn_end config
    in
    (r.Scenario.records, w.Cc_select.messages ())
  | `Ideal ->
    let observe, cc_factory = Trainer.remy ~table:select.Cc_select.remy_phi_table `Ideal in
    ((Scenario.run ~observe ~cc_factory config).Scenario.records, 0)

let run ?jobs ?remy_table ?remy_phi_table ~seeds config =
  (* Compile once before fanning out: lookups are pure and the compiled
     form immutable, so every (row, seed) job shares the same two flat
     tables across worker domains. *)
  let select = Cc_select.create ?remy_table ?remy_phi_table () in
  List.map
    (fun ((name, _), by_seed) ->
      let records, server_messages =
        Array.fold_left (fun (records, msgs) (r, m) -> (r @ records, m + msgs)) ([], 0) by_seed
      in
      { name; summary = Trainer.summarize records; server_messages })
    (Pool.fan_out ?jobs ~seeds
       (fun (_, variant) seed -> run_variant select { config with Scenario.seed } variant)
       variants)
