module Cubic = Phi_tcp.Cubic
module Flow = Phi_tcp.Flow
module Stats = Phi_util.Stats
module Topology = Phi_net.Topology

type group_result = {
  throughput_bps : float;
  queueing_delay_s : float;
  loss_proxy : float;
  power : float;
  connections : int;
}

type result = {
  modified : group_result;
  unmodified : group_result;
  overall : Scenario.result;
}

let group_result ~spec records =
  let bits, on_time, retx, segs =
    List.fold_left
      (fun (bits, on_time, retx, segs) (r : Flow.conn_stats) ->
        ( bits +. float_of_int (r.Flow.bytes * 8),
          on_time +. Flow.duration r,
          retx + r.Flow.retransmitted_segments,
          segs + r.Flow.segments ))
      (0., 0., 0, 0) records
  in
  let throughput_bps = if on_time > 0. then bits /. on_time else 0. in
  let qdelays =
    List.filter_map
      (fun r ->
        let q = Flow.queueing_delay r in
        if Float.is_finite q && q >= 0. then Some q else None)
      records
  in
  let queueing_delay_s = if qdelays = [] then 0. else Stats.mean (Array.of_list qdelays) in
  let loss_proxy = if segs = 0 then 0. else float_of_int retx /. float_of_int segs in
  {
    throughput_bps;
    queueing_delay_s;
    loss_proxy;
    power =
      Scenario.power_of ~spec ~throughput_bps ~loss_rate:loss_proxy ~queueing_delay_s;
    connections = List.length records;
  }

let run ?(fraction_modified = 0.5) ?observe ~params_modified config =
  if fraction_modified < 0. || fraction_modified > 1. then
    invalid_arg "Incremental.run: fraction out of [0, 1]";
  let n = config.Scenario.spec.Topology.n in
  let n_modified =
    int_of_float (Float.round (fraction_modified *. float_of_int n))
  in
  let cc_factory index () =
    if index < n_modified then Cubic.make params_modified else Cubic.make Cubic.default_params
  in
  let overall = Scenario.run ~cc_factory ?observe config in
  let spec = config.Scenario.spec in
  let in_modified (r : Flow.conn_stats) = r.Flow.source_index < n_modified in
  let modified_records, unmodified_records =
    List.partition in_modified overall.Scenario.records
  in
  {
    modified = group_result ~spec modified_records;
    unmodified = group_result ~spec unmodified_records;
    overall;
  }

let average_groups groups =
  let arr f = Stats.mean (Array.of_list (List.map f groups)) in
  {
    throughput_bps = arr (fun g -> g.throughput_bps);
    queueing_delay_s = arr (fun g -> g.queueing_delay_s);
    loss_proxy = arr (fun g -> g.loss_proxy);
    power = arr (fun g -> g.power);
    connections = List.fold_left (fun acc g -> acc + g.connections) 0 groups;
  }

let fraction_sweep ?jobs ~fractions ~params_modified ~seeds config =
  List.map
    (fun (fraction, by_seed) ->
      let per_seed = Array.to_list by_seed in
      ( fraction,
        average_groups (List.map (fun r -> r.modified) per_seed),
        average_groups (List.map (fun r -> r.unmodified) per_seed) ))
    (Phi_runner.Pool.fan_out ?jobs ~seeds
       (fun fraction seed ->
         run ~fraction_modified:fraction ~params_modified { config with Scenario.seed })
       fractions)
