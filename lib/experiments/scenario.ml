module Engine = Phi_sim.Engine
module Topology = Phi_net.Topology
module Zoo = Phi_net.Topology.Zoo
module Link = Phi_net.Link
module Flow = Phi_tcp.Flow
module Source = Phi_tcp.Source
module Sender = Phi_tcp.Sender
module Cubic = Phi_tcp.Cubic
module Prng = Phi_util.Prng
module Stats = Phi_util.Stats

type workload = Source.config = { mean_on_bytes : float; mean_off_s : float }

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
  delay_s : float;
  loss_rate : float;
  utilization : float;
  power : float;
  jain : float;
  p99_fct_s : float;
  connections : int;
  flows : int;
  records : Flow.conn_stats list;
}

type aqm = Drop_tail | Red | Red_ecn

let aqm_name = function Drop_tail -> "droptail" | Red -> "red" | Red_ecn -> "red_ecn"
let aqm_names = [ "droptail"; "red"; "red_ecn" ]

let aqm_by_name = function
  | "droptail" -> Drop_tail
  | "red" -> Red
  | "red_ecn" -> Red_ecn
  | other -> invalid_arg (Printf.sprintf "Scenario.aqm_by_name: unknown AQM %S" other)

let default_factory _index () = Cubic.make Cubic.default_params

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
        Sender.create
          (Topology.node_engine built ~id:fp.Zoo.src)
          ~node:(Topology.node built ~id:fp.Zoo.src)
          ~flow:i ~dst:fp.Zoo.dst ~cc:(cc_factory i ())
          ~total_segments:Sender.persistent_total ~source_index:i ())
      paths
  in
  (* Stagger flow starts over the first second to desynchronize. *)
  Array.iteri
    (fun i sender ->
      ignore
        (Engine.schedule_after
           (Topology.node_engine built ~id:paths.(i).Zoo.src)
           ~delay:(Prng.float rng)
           (fun () -> Sender.start sender)))
    senders;
  senders

(* {2 The cell runner}

   Every scenario is one cell: a topology realized with its {!Zoo}
   description, a load, an AQM regime, a dynamics script and a
   measurement window, run by {!cell} and measured by {!measure}. *)

type load = On_off of workload | Persistent

(* [Whole] opens the link windows before the run, so they read the
   links' totals; [Second_half] opens them at half time, past the
   start-up transient. *)
type window = Whole | Second_half

(* Jain fairness over the bytes each source index in [0, n_sources)
   delivered. *)
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

(* The one measurement.  Link figures sum over the bottlenecks'
   windows.  Queueing delay is sum(q_i * d_i) / sum(d_i), the figure the
   WAN matrix and perfbench's fingerprints pin; sum(wait_i) / sum(d_i)
   differs from it in the last bits.  An on/off load's throughput is
   the paper's "bits transferred / ontime" over its records; a
   persistent load's is the bottlenecks' delivery rate. *)
let measure ~load ~base_rtt_s ~n_flows ~n_sources ~elapsed_s bottlenecks windows records =
  let sum f = Array.fold_left ( + ) 0 (Array.map2 f bottlenecks windows) in
  let fsum f = Array.fold_left ( +. ) 0. (Array.map2 f bottlenecks windows) in
  let delivered = sum Link.window_delivered and offered = sum Link.window_offered in
  let queueing_delay_s =
    if delivered = 0 then 0.
    else
      fsum (fun l w -> Link.window_queue_delay_s l w *. float_of_int (Link.window_delivered l w))
      /. float_of_int delivered
  in
  let loss_rate =
    if offered = 0 then 0. else float_of_int (sum Link.window_drops) /. float_of_int offered
  in
  let throughput_bps =
    match load with
    | On_off _ ->
      let bits, on_time =
        List.fold_left
          (fun (bits, on_time) r ->
            (bits +. float_of_int (r.Flow.bytes * 8), on_time +. Flow.duration r))
          (0., 0.) records
      in
      if on_time <= 0. then 0. else bits /. on_time
    | Persistent -> float_of_int (sum Link.window_bytes_delivered * 8) /. elapsed_s
  in
  let delay_s = base_rtt_s +. queueing_delay_s in
  {
    throughput_bps;
    queueing_delay_s;
    delay_s;
    loss_rate;
    utilization =
      fsum (fun l w -> Link.window_utilization l w ~elapsed_s)
      /. float_of_int (Stdlib.max 1 (Array.length bottlenecks));
    power = Phi.Metric.power_with_loss ~throughput_bps ~loss_rate ~delay_s;
    jain = jain ~n_sources records;
    p99_fct_s =
      (match records with
      | [] -> 0.
      | _ -> Stats.percentile (Array.of_list (List.map Flow.duration records)) ~p:99.);
    connections = List.length records;
    flows = n_flows;
    records;
  }

(* The one place that builds transport, all of it before the run
   starts, so the rng draw order is a pure function of the cell: a
   sender per flow path (persistent cells take no dynamics), or a
   source per flow path plus the flash-crowd sources and incast bursts.
   Returns the number of sources fairness runs over, a start, and a
   finish that stops the transport at the horizon and returns the
   connection records. *)
let transport ~cc_factory ~on_conn_end engine built (zoo : Zoo.t) ~rng ~dynamics ~duration_s =
  function
  | Persistent ->
    let senders = persistent_senders ~cc_factory built ~rng zoo.Zoo.flow_paths in
    ( Array.length senders,
      ignore,
      fun () ->
        let records = Array.to_list (Array.map Sender.stats senders) in
        Array.iter Sender.abort senders;
        records )
  | On_off workload ->
    let paths = zoo.Zoo.flow_paths in
    let n_flows = Array.length paths in
    let flows = Flow.allocator () in
    let records = ref [] in
    let source ~index (fp : Zoo.flow_path) =
      Source.create engine ~rng:(Prng.split rng) ~flows
        ~src_node:(Topology.node built ~id:fp.Zoo.src)
        ~dst_node:(Topology.node built ~id:fp.Zoo.dst)
        ~index ~cc_factory:(cc_factory index)
        ~on_conn_end:(fun stats ->
          records := stats :: !records;
          on_conn_end stats)
        workload
    in
    let primaries = Array.mapi (fun index fp -> source ~index fp) paths in
    let extras =
      match dynamics with
      | Dynamics.Flash_crowd { at_frac; multiplier } when multiplier > 1 && n_flows > 0 ->
        let xs =
          Array.init
            ((multiplier - 1) * n_flows)
            (fun e -> source ~index:(n_flows + e) paths.(e mod n_flows))
        in
        Dynamics.at engine ~time:(at_frac *. duration_s) (fun () -> Array.iter Source.start xs);
        xs
      | _ -> [||]
    in
    (match dynamics with
    | Dynamics.Incast { period_s; fan_in; burst_segments }
      when Array.length zoo.Zoo.incast_sources > 0 ->
      let srcs = zoo.Zoo.incast_sources in
      let sink_node = Topology.node built ~id:zoo.Zoo.incast_sink in
      let k = ref 1 in
      while float_of_int !k *. period_s < duration_s do
        let burst =
          Array.init (Stdlib.min fan_in (Array.length srcs)) (fun j ->
              (* Rotate the fan over the eligible sources so repeated
                 bursts stress different access paths. *)
              let src_id = srcs.((!k - 1 + j) mod Array.length srcs) in
              let flow = Flow.fresh flows in
              let receiver = Phi_tcp.Receiver.create engine ~node:sink_node ~flow ~peer:src_id in
              Sender.create engine
                ~node:(Topology.node built ~id:src_id)
                ~flow ~dst:zoo.Zoo.incast_sink
                ~cc:(cc_factory (n_flows + j) ())
                ~total_segments:burst_segments
                ~on_complete:(fun _ -> Phi_tcp.Receiver.close receiver)
                ())
        in
        Dynamics.at engine ~time:(float_of_int !k *. period_s) (fun () ->
            Array.iter Sender.start burst);
        incr k
      done
    | _ -> ());
    ( n_flows + Array.length extras,
      (fun () -> Array.iter Source.start primaries),
      fun () ->
        Array.iter Source.abort_current primaries;
        Array.iter Source.abort_current extras;
        !records )

(* The one cell runner: check the inputs, realize the topology, install
   the AQM, the transport and the link-level dynamics, run to the window
   and through it, then measure. *)
let cell ~who ?(cc_factory = default_factory) ?(on_conn_end = fun _ -> ()) ?(aqm = Drop_tail)
    ?(dynamics = Dynamics.Steady) ~realize ~base_rtt_s ~load ~window ~duration_s ~seed () =
  if not (Float.is_finite duration_s && duration_s > 0.) then
    invalid_arg
      (Printf.sprintf "Scenario.%s: duration must be finite and positive, got %g" who duration_s);
  Dynamics.check dynamics;
  let engine = Engine.create () in
  let built, (zoo : Zoo.t) = realize engine in
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
  let n_sources, start, finish =
    transport ~cc_factory ~on_conn_end engine built zoo ~rng ~dynamics ~duration_s load
  in
  Dynamics.install ~engine ~rng:(Prng.split rng) ~bottlenecks ~duration_s dynamics;
  start ();
  let elapsed_s =
    match window with
    | Whole -> duration_s
    | Second_half ->
      let half = duration_s /. 2. in
      Engine.run ~until:half engine;
      half
  in
  let windows = Array.map Link.window_open bottlenecks in
  Engine.run ~until:duration_s engine;
  let records = finish () in
  measure ~load ~base_rtt_s ~n_flows:(Array.length zoo.Zoo.flow_paths) ~n_sources ~elapsed_s
    bottlenecks windows records

(* The paper's dumbbell, realized in one pass with its description. *)
let dumbbell ?(observe = fun _ _ -> ()) spec engine =
  let d = Topology.dumbbell engine spec in
  observe engine d;
  (d.Topology.built, d.Topology.zoo)

let run ?cc_factory ?on_conn_end ?observe config =
  cell ~who:"run" ?cc_factory ?on_conn_end ~realize:(dumbbell ?observe config.spec)
    ~base_rtt_s:config.spec.Topology.rtt_s ~load:(On_off config.workload) ~window:Whole
    ~duration_s:config.duration_s ~seed:config.seed ()

let run_persistent ?cc_factory ~n_flows ~duration_s ~spec ~seed () =
  let spec = { spec with Topology.n = n_flows } in
  cell ~who:"run_persistent" ?cc_factory ~realize:(dumbbell spec) ~base_rtt_s:spec.Topology.rtt_s
    ~load:Persistent ~window:Second_half ~duration_s ~seed ()

let zoo_workload = { mean_on_bytes = 300e3; mean_off_s = 0.5 }

(* A zoo cell charges its flows' mean path RTT. *)
let run_zoo_cell ?cc_factory ?aqm ?dynamics ?(duration_s = 30.) ?(seed = 1) ?on_conn_end
    ?(observe = fun _ _ -> ()) (zoo : Zoo.t) =
  let rtts = Array.map (fun (fp : Zoo.flow_path) -> fp.Zoo.rtt_s) zoo.Zoo.flow_paths in
  cell ~who:"run_zoo_cell" ?cc_factory ?on_conn_end ?aqm ?dynamics
    ~realize:(fun engine ->
      let built = Topology.build engine zoo.Zoo.declare in
      observe engine built;
      (built, zoo))
    ~base_rtt_s:(if Array.length rtts = 0 then 0. else Stats.mean rtts)
    ~load:(On_off zoo_workload) ~window:Second_half ~duration_s ~seed ()

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

let run_zoo ?cc_factory ?aqm ?dynamics ?duration_s ?seed ?on_conn_end ?observe zoo =
  let r = run_zoo_cell ?cc_factory ?aqm ?dynamics ?duration_s ?seed ?on_conn_end ?observe zoo in
  {
    z_throughput_bps = r.throughput_bps;
    z_queueing_delay_s = r.queueing_delay_s;
    z_delay_s = r.delay_s;
    z_loss_rate = r.loss_rate;
    z_utilization = r.utilization;
    z_power = r.power;
    z_jain = r.jain;
    z_p99_fct_s = r.p99_fct_s;
    z_connections = r.connections;
    z_flows = r.flows;
    z_records = r.records;
  }
