module Engine = Phi_sim.Engine
module Topology = Phi_net.Topology
module Zoo = Phi_net.Topology.Zoo
module Link = Phi_net.Link
module Flow = Phi_tcp.Flow
module Cubic = Phi_tcp.Cubic
module Prng = Phi_util.Prng
module Stats = Phi_util.Stats

type workload = { mean_on_bytes : float; mean_off_s : float }

type config = {
  spec : Topology.spec;
  workload : workload;
  duration_s : float;
  seed : int;
}

let low_utilization =
  {
    spec = Topology.paper_spec;
    workload = { mean_on_bytes = 500e3; mean_off_s = 2.0 };
    duration_s = 120.;
    seed = 1;
  }

let high_utilization =
  { low_utilization with workload = { mean_on_bytes = 500e3; mean_off_s = 0.3 } }

let table3 =
  {
    low_utilization with
    workload = { mean_on_bytes = 100e3; mean_off_s = 0.5 };
    duration_s = 60.;
  }

type result = {
  throughput_bps : float;
  queueing_delay_s : float;
  loss_rate : float;
  utilization : float;
  power : float;
  connections : int;
  records : Flow.conn_stats list;
}

let power_of ~spec ~throughput_bps ~loss_rate ~queueing_delay_s =
  Phi.Metric.power_with_loss ~throughput_bps ~loss_rate
    ~delay_s:(spec.Topology.rtt_s +. queueing_delay_s)

(* Aggregate on-time throughput: total bits over total connection-on
   time, per the paper's "throughput = bits transferred / ontime". *)
let aggregate_throughput records =
  let bits, on_time =
    List.fold_left
      (fun (bits, on_time) r ->
        (bits +. float_of_int (r.Flow.bytes * 8), on_time +. Flow.duration r))
      (0., 0.) records
  in
  if on_time <= 0. then 0. else bits /. on_time

let result_of_run ~spec ~duration_s ~bottleneck records =
  let queueing_delay_s =
    let delivered = Link.packets_delivered bottleneck in
    if delivered = 0 then 0. else Link.total_queue_wait bottleneck /. float_of_int delivered
  in
  let loss_rate =
    let offered = Link.packets_offered bottleneck in
    if offered = 0 then 0. else float_of_int (Link.drops bottleneck) /. float_of_int offered
  in
  let throughput_bps = aggregate_throughput records in
  {
    throughput_bps;
    queueing_delay_s;
    loss_rate;
    utilization = Float.min 1. (Link.busy_time bottleneck /. duration_s);
    power = power_of ~spec ~throughput_bps ~loss_rate ~queueing_delay_s;
    connections = List.length records;
    records;
  }

let default_factory _index () = Cubic.make Cubic.default_params

let check_duration ~who duration_s =
  if not (Float.is_finite duration_s && duration_s > 0.) then
    invalid_arg
      (Printf.sprintf "Scenario.%s: duration must be finite and positive, got %g" who duration_s)

let run ?(cc_factory = default_factory) ?(on_conn_end = fun _ -> ()) ?(observe = fun _ _ -> ())
    config =
  check_duration ~who:"run" config.duration_s;
  let engine = Engine.create () in
  let dumbbell = Topology.dumbbell engine config.spec in
  observe engine dumbbell;
  let rng = Prng.create ~seed:config.seed in
  let flows = Flow.allocator () in
  let records = ref [] in
  let sources =
    Array.init config.spec.Topology.n (fun i ->
        Phi_tcp.Source.create engine ~rng:(Prng.split rng) ~flows
          ~src_node:dumbbell.Topology.senders.(i)
          ~dst_node:dumbbell.Topology.receivers.(i)
          ~index:i ~cc_factory:(cc_factory i)
          ~on_conn_end:(fun stats ->
            records := stats :: !records;
            on_conn_end stats)
          {
            Phi_tcp.Source.mean_on_bytes = config.workload.mean_on_bytes;
            mean_off_s = config.workload.mean_off_s;
          })
  in
  Array.iter Phi_tcp.Source.start sources;
  Engine.run ~until:config.duration_s engine;
  Array.iter Phi_tcp.Source.abort_current sources;
  result_of_run ~spec:config.spec ~duration_s:config.duration_s
    ~bottleneck:dumbbell.Topology.bottleneck !records

let persistent_senders ?(cc_factory = default_factory) built ~rng paths =
  let senders =
    Array.mapi
      (fun i (fp : Zoo.flow_path) ->
        let _receiver =
          Phi_tcp.Receiver.create
            (Topology.node_engine built ~id:fp.Zoo.dst)
            ~node:(Topology.node built ~id:fp.Zoo.dst)
            ~flow:i ~peer:fp.Zoo.src
        in
        Phi_tcp.Sender.create
          (Topology.node_engine built ~id:fp.Zoo.src)
          ~node:(Topology.node built ~id:fp.Zoo.src)
          ~flow:i ~dst:fp.Zoo.dst ~cc:(cc_factory i ())
          ~total_segments:Phi_tcp.Sender.persistent_total ~source_index:i ())
      paths
  in
  (* Stagger flow starts over the first second to desynchronize. *)
  Array.iteri
    (fun i sender ->
      ignore
        (Engine.schedule_after
           (Topology.node_engine built ~id:paths.(i).Zoo.src)
           ~delay:(Prng.float rng)
           (fun () -> Phi_tcp.Sender.start sender)))
    senders;
  senders

let run_persistent ?cc_factory ~n_flows ~duration_s ~spec ~seed () =
  check_duration ~who:"run_persistent" duration_s;
  let spec = { spec with Topology.n = n_flows } in
  let zoo = Zoo.dumbbell ~spec () in
  let engine = Engine.create () in
  let built = Topology.build engine zoo.Zoo.declare in
  let senders =
    persistent_senders ?cc_factory built ~rng:(Prng.create ~seed) zoo.Zoo.flow_paths
  in
  (* Warm-up half, then measure deltas over the second half. *)
  let half = duration_s /. 2. in
  Engine.run ~until:half engine;
  let bottleneck = Topology.link_of built zoo.Zoo.bottlenecks.(0) in
  let window = Link.window_open bottleneck in
  Engine.run ~until:duration_s engine;
  let queueing_delay_s = Link.window_queue_delay_s bottleneck window in
  let loss_rate = Link.window_loss_rate bottleneck window in
  let throughput_bps = Link.window_throughput_bps bottleneck window ~elapsed_s:half in
  let records = Array.to_list (Array.map Phi_tcp.Sender.stats senders) in
  Array.iter Phi_tcp.Sender.abort senders;
  {
    throughput_bps;
    queueing_delay_s;
    loss_rate;
    utilization = Link.window_utilization bottleneck window ~elapsed_s:half;
    power = power_of ~spec ~throughput_bps ~loss_rate ~queueing_delay_s;
    connections = n_flows;
    records;
  }

let jain ~n_sources records =
  if n_sources = 0 then 1.
  else begin
    let bytes = Array.make n_sources 0. in
    List.iter
      (fun r ->
        let i = r.Flow.source_index in
        if i >= 0 && i < n_sources then bytes.(i) <- bytes.(i) +. float_of_int r.Flow.bytes)
      records;
    Stats.jain bytes
  end

let p99_fct_s = function
  | [] -> 0.
  | records -> Stats.percentile (Array.of_list (List.map Flow.duration records)) ~p:99.

(* {2 The generalized scenario plane}

   [run_zoo] evaluates topology x workload x dynamics x AQM: any
   {!Zoo} topology realized through the topology builder, the same on/off
   workload as {!run}, one {!Dynamics} regime, and an AQM regime on
   the bottleneck links.  One call is one matrix cell. *)

type aqm = Drop_tail | Red | Red_ecn

let aqm_name = function Drop_tail -> "droptail" | Red -> "red" | Red_ecn -> "red_ecn"
let aqm_names = [ "droptail"; "red"; "red_ecn" ]

let aqm_by_name = function
  | "droptail" -> Drop_tail
  | "red" -> Red
  | "red_ecn" -> Red_ecn
  | other -> invalid_arg (Printf.sprintf "Scenario.aqm_by_name: unknown AQM %S" other)

type zoo_result = {
  z_throughput_bps : float;
  z_queueing_delay_s : float;
  z_delay_s : float;
  z_loss_rate : float;
  z_utilization : float;
  z_power : float;
  z_jain : float;
  z_p99_fct_s : float;
  z_connections : int;
  z_flows : int;
  z_records : Flow.conn_stats list;
}

(* 300 KB mean transfers, 0.5 s mean idle. *)
let zoo_workload = { Phi_tcp.Source.mean_on_bytes = 300e3; mean_off_s = 0.5 }

let run_zoo ?(cc_factory = default_factory) ?(aqm = Drop_tail) ?(dynamics = Dynamics.Steady)
    ?(duration_s = 30.) ?(seed = 1)
    ?(on_conn_end = fun _ -> ()) ?(observe = fun _ _ -> ()) (zoo : Zoo.t) =
  check_duration ~who:"run_zoo" duration_s;
  let engine = Engine.create () in
  let built = Topology.build engine zoo.Zoo.declare in
  observe engine built;
  let rng = Prng.create ~seed in
  let bottlenecks = Array.map (Topology.link_of built) zoo.Zoo.bottlenecks in
  (match aqm with
  | Drop_tail -> ()
  | Red | Red_ecn ->
      Array.iter
        (fun link ->
          Link.set_discipline link ~rng:(Prng.split rng)
            (Link.Red (Link.default_red ~ecn:(aqm = Red_ecn) ~capacity_pkts:(Link.capacity_pkts link) ())))
        bottlenecks);
  let flows = Flow.allocator () in
  let records = ref [] in
  let n_flows = Array.length zoo.Zoo.flow_paths in
  let mk_source ~index (fp : Zoo.flow_path) =
    Phi_tcp.Source.create engine ~rng:(Prng.split rng) ~flows
      ~src_node:(Topology.node built ~id:fp.Zoo.src)
      ~dst_node:(Topology.node built ~id:fp.Zoo.dst)
      ~index ~cc_factory:(cc_factory index)
      ~on_conn_end:(fun stats ->
        records := stats :: !records;
        on_conn_end stats)
      zoo_workload
  in
  let primaries = Array.mapi (fun i fp -> mk_source ~index:i fp) zoo.Zoo.flow_paths in
  (* Workload-level dynamics own transport, so they are interpreted
     here; everything is constructed up-front and only *started* by the
     scripted events, keeping the rng draw order a pure function of the
     cell parameters. *)
  let extras =
    match dynamics with
    | Dynamics.Flash_crowd { at_frac; multiplier } when multiplier > 1 && n_flows > 0 ->
        if at_frac < 0. || at_frac >= 1. then
          invalid_arg "Scenario.run_zoo: flash crowd at_frac must be within [0, 1)";
        let xs =
          Array.init
            ((multiplier - 1) * n_flows)
            (fun e -> mk_source ~index:(n_flows + e) zoo.Zoo.flow_paths.(e mod n_flows))
        in
        Dynamics.at engine ~time:(at_frac *. duration_s) (fun () ->
            Array.iter Phi_tcp.Source.start xs);
        xs
    | _ -> [||]
  in
  (match dynamics with
  | Dynamics.Incast { period_s; fan_in; burst_segments }
    when Array.length zoo.Zoo.incast_sources > 0 && fan_in > 0 && burst_segments > 0 ->
      if period_s <= 0. then invalid_arg "Scenario.run_zoo: incast period must be positive";
      let srcs = zoo.Zoo.incast_sources in
      let fan = Stdlib.min fan_in (Array.length srcs) in
      let sink_node = Topology.node built ~id:zoo.Zoo.incast_sink in
      let k = ref 1 in
      while float_of_int !k *. period_s < duration_s do
        let time = float_of_int !k *. period_s in
        let burst =
          Array.init fan (fun j ->
              (* Rotate the fan over the eligible sources so repeated
                 bursts stress different access paths. *)
              let src_id = srcs.((!k - 1 + j) mod Array.length srcs) in
              let flow = Flow.fresh flows in
              let receiver = Phi_tcp.Receiver.create engine ~node:sink_node ~flow ~peer:src_id in
              Phi_tcp.Sender.create engine
                ~node:(Topology.node built ~id:src_id)
                ~flow ~dst:zoo.Zoo.incast_sink
                ~cc:(cc_factory (n_flows + j) ())
                ~total_segments:burst_segments
                ~on_complete:(fun _ -> Phi_tcp.Receiver.close receiver)
                ())
        in
        Dynamics.at engine ~time (fun () -> Array.iter Phi_tcp.Sender.start burst);
        incr k
      done
  | _ -> ());
  Dynamics.install ~engine ~rng:(Prng.split rng) ~bottlenecks ~duration_s dynamics;
  Array.iter Phi_tcp.Source.start primaries;
  (* Warm-up half, then measure link deltas over the second half;
     connection records (feeding fairness and FCT) span the whole run. *)
  let half = duration_s /. 2. in
  Engine.run ~until:half engine;
  let windows = Array.map Link.window_open bottlenecks in
  Engine.run ~until:duration_s engine;
  Array.iter Phi_tcp.Source.abort_current primaries;
  Array.iter Phi_tcp.Source.abort_current extras;
  let delivered = ref 0 and offered = ref 0 and dropped = ref 0 in
  let wait_s = ref 0. and util = ref 0. in
  Array.iteri
    (fun i link ->
      let w = windows.(i) in
      let d = Link.window_delivered link w in
      delivered := !delivered + d;
      offered := !offered + Link.window_offered link w;
      dropped := !dropped + Link.window_drops link w;
      wait_s := !wait_s +. (Link.window_queue_delay_s link w *. float_of_int d);
      util := !util +. Link.window_utilization link w ~elapsed_s:half)
    bottlenecks;
  let queueing_delay_s = if !delivered = 0 then 0. else !wait_s /. float_of_int !delivered in
  let loss_rate =
    if !offered = 0 then 0. else float_of_int !dropped /. float_of_int !offered
  in
  let utilization = !util /. float_of_int (Stdlib.max 1 (Array.length bottlenecks)) in
  let records = !records in
  let throughput_bps = aggregate_throughput records in
  let base_rtt_s =
    if n_flows = 0 then 0.
    else
      Array.fold_left (fun acc fp -> acc +. fp.Zoo.rtt_s) 0. zoo.Zoo.flow_paths
      /. float_of_int n_flows
  in
  let delay_s = base_rtt_s +. queueing_delay_s in
  {
    z_throughput_bps = throughput_bps;
    z_queueing_delay_s = queueing_delay_s;
    z_delay_s = delay_s;
    z_loss_rate = loss_rate;
    z_utilization = utilization;
    z_power = Phi.Metric.power_with_loss ~throughput_bps ~loss_rate ~delay_s;
    z_jain = jain ~n_sources:(n_flows + Array.length extras) records;
    z_p99_fct_s = p99_fct_s records;
    z_connections = List.length records;
    z_flows = n_flows;
    z_records = records;
  }
