module Topology = Phi_net.Topology
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

type row = { algorithm : string; cell : string; aqm : string; mean : Scenario.result }

(* One seeded run of one algorithm in one cell: the cell's name, its
   AQM and its result. *)
let run_cell select ?duration_s ~seed algo cell =
  let wire ~capacity_bps ~path =
    Cc_select.wire select ~capacity_bps ~path (Cc_select.Algorithm algo)
  in
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
    let w = wire ~capacity_bps:config.Scenario.spec.Topology.bottleneck_bw_bps ~path:"dumbbell" in
    ( name,
      Scenario.Drop_tail,
      Scenario.run ~cc_factory:w.cc_factory ~observe:(fun e _ -> w.attach e)
        ~on_conn_end:w.on_conn_end config )
  | Zoo { topology; dynamics; aqm } ->
    let zoo = Topology.Zoo.by_name topology in
    let w = wire ~capacity_bps:zoo.Topology.Zoo.bottleneck_bw_bps ~path:zoo.Topology.Zoo.name in
    ( topology ^ "/" ^ dynamics,
      aqm,
      Scenario.run_zoo_cell ~cc_factory:w.cc_factory ~observe:(fun e _ -> w.attach e)
        ~on_conn_end:w.on_conn_end ~aqm ~dynamics:(Dynamics.by_name dynamics) ?duration_s ~seed
        zoo )

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
    (fun ((algo, _), by_seed) ->
      let cell, aqm, _ = by_seed.(0) in
      {
        algorithm = Cc_algo.name algo;
        cell;
        aqm = Scenario.aqm_name aqm;
        mean = Scenario.mean (Array.map (fun (_, _, r) -> r) by_seed);
      })
    (Pool.fan_out ?jobs ~seeds
       (fun (algo, cell) seed -> run_cell select ?duration_s ~seed algo cell)
       (List.concat_map (fun algo -> List.map (fun cell -> (algo, cell)) cells) algorithms))
