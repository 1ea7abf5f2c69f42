module Topology = Phi_net.Topology
module Stats = Phi_util.Stats
module Pool = Phi_runner.Pool
module Cc_algo = Phi.Cc_algo

type cell =
  | Paper of [ `Low | `High ]
  | Zoo of { topology : string; dynamics : string; aqm : Scenario.aqm }

let paper_cells = [ Paper `Low; Paper `High ]

let default_topologies = [ "dumbbell"; "parking_lot"; "wan" ]
let default_dynamics = [ "steady"; "flap"; "incast" ]

let zoo_cells ~aqm ~topologies ~dynamics =
  List.concat_map
    (fun topology -> List.map (fun dynamics -> Zoo { topology; dynamics; aqm }) dynamics)
    topologies

type row = {
  algorithm : string;
  cell : string;
  aqm : string;
  throughput_bps : float;
  delay_s : float;
  queueing_delay_s : float;
  loss_rate : float;
  power : float;
  jain : float;
  p99_fct_s : float;
  connections : int;
}

(* One seeded run of one algorithm in one cell, as a one-seed row. *)
let run_cell select ?duration_s ~seed algo cell =
  let algorithm = Cc_algo.name algo in
  match cell with
  | Paper load ->
    let name, config =
      match load with
      | `Low -> ("low", Scenario.low_utilization)
      | `High -> ("high", Scenario.high_utilization)
    in
    let config =
      { config with Scenario.seed; duration_s = Option.value duration_s ~default:config.duration_s }
    in
    let spec = config.Scenario.spec in
    let w = Cc_select.wire select ~capacity_bps:spec.Topology.bottleneck_bw_bps ~path:"dumbbell" algo in
    let r =
      Scenario.run ~cc_factory:w.cc_factory ~observe:(fun e _ -> w.attach e)
        ~on_conn_end:w.on_conn_end config
    in
    {
      algorithm;
      cell = name;
      aqm = Scenario.aqm_name Scenario.Drop_tail;
      throughput_bps = r.Scenario.throughput_bps;
      delay_s = spec.Topology.rtt_s +. r.Scenario.queueing_delay_s;
      queueing_delay_s = r.Scenario.queueing_delay_s;
      loss_rate = r.Scenario.loss_rate;
      power = r.Scenario.power;
      jain = Scenario.jain ~n_sources:spec.Topology.n r.Scenario.records;
      p99_fct_s = Scenario.p99_fct_s r.Scenario.records;
      connections = r.Scenario.connections;
    }
  | Zoo { topology; dynamics; aqm } ->
    let zoo = Topology.Zoo.by_name topology in
    let w =
      Cc_select.wire select ~capacity_bps:zoo.Topology.Zoo.bottleneck_bw_bps
        ~path:zoo.Topology.Zoo.name algo
    in
    let r =
      Scenario.run_zoo ~cc_factory:w.cc_factory ~observe:(fun e _ -> w.attach e)
        ~on_conn_end:w.on_conn_end ~aqm ~dynamics:(Dynamics.by_name dynamics) ?duration_s ~seed
        zoo
    in
    {
      algorithm;
      cell = topology ^ "/" ^ dynamics;
      aqm = Scenario.aqm_name aqm;
      throughput_bps = r.Scenario.z_throughput_bps;
      delay_s = r.Scenario.z_delay_s;
      queueing_delay_s = r.Scenario.z_queueing_delay_s;
      loss_rate = r.Scenario.z_loss_rate;
      power = r.Scenario.z_power;
      jain = r.Scenario.z_jain;
      p99_fct_s = r.Scenario.z_p99_fct_s;
      connections = r.Scenario.z_connections;
    }

let mean_row (by_seed : row array) =
  let mean f = Stats.mean (Array.map f by_seed) in
  {
    (by_seed.(0)) with
    throughput_bps = mean (fun r -> r.throughput_bps);
    delay_s = mean (fun r -> r.delay_s);
    queueing_delay_s = mean (fun r -> r.queueing_delay_s);
    loss_rate = mean (fun r -> r.loss_rate);
    power = mean (fun r -> r.power);
    jain = mean (fun r -> r.jain);
    p99_fct_s = mean (fun r -> r.p99_fct_s);
    connections = Array.fold_left (fun acc r -> acc + r.connections) 0 by_seed;
  }

let run ?jobs ?(algorithms = Cc_algo.all) ?remy_table ?remy_phi_table ?duration_s ~seeds cells =
  if algorithms = [] then invalid_arg "Cc_matrix.run: no algorithms";
  if cells = [] then invalid_arg "Cc_matrix.run: no cells";
  (* Validate the names before fanning out, so a typo fails fast
     instead of inside a worker. *)
  List.iter
    (function
      | Zoo { topology; dynamics; _ } ->
        ignore (Topology.Zoo.by_name topology);
        ignore (Dynamics.by_name dynamics)
      | Paper _ -> ())
    cells;
  (* Compile once before fanning out: every cell shares the two flat
     tables. *)
  let select = Cc_select.create ?remy_table ?remy_phi_table () in
  List.map
    (fun (_, by_seed) -> mean_row by_seed)
    (Pool.fan_out ?jobs ~seeds
       (fun (algo, cell) seed -> run_cell select ?duration_s ~seed algo cell)
       (List.concat_map (fun algo -> List.map (fun cell -> (algo, cell)) cells) algorithms))
