(* The phi benchmark: four workloads, each run from one process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --workload NAME --record

   Run it from the root of a checkout: the recorded fingerprints are read
   from [fingerprints_path] and a traced run's spans go to [spans_dir].

   A run repeats the workload's unit of work (one simulation cell, one
   trace replay) until [--seconds] have passed, checks every repetition
   against the recorded fingerprint of its input, and reports medians.
   With [--trace 1] the first half of the time is an untraced baseline
   and the second half a traced run whose per-layer numbers come from
   timing the benchmark's own calls into each layer and from reading
   public counters; the library is not modified.  README.md beside this
   directory defines every metric. *)

module Engine = Phi_sim.Engine
module Topology = Phi_net.Topology
module Zoo = Phi_net.Topology.Zoo
module Link = Phi_net.Link
module Node = Phi_net.Node
module Packet = Phi_net.Packet
module Flow = Phi_tcp.Flow
module Cubic = Phi_tcp.Cubic
module Scenario = Phi_experiments.Scenario
module Parking_lot = Phi_experiments.Parking_lot
module Dynamics = Phi_experiments.Dynamics
module Remy_cc = Phi_remy.Remy_cc
module Compiled_table = Phi_remy.Compiled_table
module Context = Phi.Context
module Context_server = Phi.Context_server
module Context_wire = Phi.Context_wire
module Policy = Phi.Policy
module Cc_algo = Phi.Cc_algo
module Cloud_trace = Phi_workload.Cloud_trace
module Prng = Phi_util.Prng
module Stats = Phi_util.Stats
open Perfbench

(* {1 Per-layer accumulators}

   Raw sums over the traced repetitions, turned into the reported
   per-layer metrics once the traced phase ends. *)

let acc : (string, float) Hashtbl.t = Hashtbl.create 64
let get k = Option.value (Hashtbl.find_opt acc k) ~default:0.
let add k v = Hashtbl.replace acc k (get k +. v)
let addi k v = add k (float_of_int v)
let hmax k v = if v > get k then Hashtbl.replace acc k v
let set k v = Hashtbl.replace acc k v

(* The tracer of a traced repetition: spans plus the counters filled by
   the timing wrappers. *)
type tracer = {
  spans : Span.t;
  cc : Cc_wrap.counters;
  mutable node_ns : int;
  mutable forwards : int;
  mutable lookup_ns : int;
  mutable lookups : int;
  mutable report_ns : int;
  mutable reports : int;
}

let tracer spans =
  {
    spans;
    cc = Cc_wrap.counters ();
    node_ns = 0;
    forwards = 0;
    lookup_ns = 0;
    lookups = 0;
    report_ns = 0;
    reports = 0;
  }

(* One repetition of a workload's unit of work. *)
type rep = {
  setup_ns : int;
  measure_ns : int;
  work : int;  (** bottleneck packets delivered, or messages served *)
  ops : int;  (** operations attempted: 1 per cell, 1 per message *)
  failed : int;  (** operations that failed inside the repetition *)
  fingerprint : string;
  probe_ns : int;  (** {!Calib.probe_ns} around the repetition, set by [phase] *)
}

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.now_ns () - t0)

(* A read-only event every [every] virtual seconds up to [until]; [probes]
   counts executions so event totals can be reported net of them. *)
let sampler engine ~every ~until probes f =
  let rec tick () =
    incr probes;
    f ();
    let next = Engine.now engine +. every in
    if next <= until then ignore (Engine.schedule_at engine ~time:next tick)
  in
  ignore (Engine.schedule_at engine ~time:every tick)

(* Marks the start of the measured phase: the first event of the run. *)
let start_probe engine probes t_start =
  ignore
    (Engine.schedule_at engine ~time:0. (fun () ->
         incr probes;
         t_start := Clock.now_ns ()))

(* Span bookkeeping shared by the dumbbell and WAN workloads. *)
let sim_spans tr ~t0 ~t_built ~t_start ~t1 =
  let s = tr.spans in
  let rep = Span.add s "rep" ~start:t0 ~stop:t1 in
  ignore (Span.add s ~parent:rep "topology.build" ~start:t0 ~stop:t_built);
  ignore (Span.add s ~parent:rep "scenario.transport" ~start:t_built ~stop:t_start);
  let m = Span.add s ~parent:rep "scenario.measure" ~start:t_start ~stop:t1 in
  (* Lookups run inside controller construction, so [busy_ns] covers them. *)
  Span.charge s m (Cc_wrap.busy_ns tr.cc + tr.node_ns + tr.report_ns);
  addi "build_ns" (t_built - t0);
  addi "transport_ns" (t_start - t_built);
  addi "measure_ns" (t1 - t_start)

let add_records records =
  List.iter
    (fun (r : Flow.conn_stats) ->
      addi "sender.connections" 1;
      addi "sender.segments" r.Flow.segments;
      addi "sender.retx" r.Flow.retransmitted_segments;
      addi "sender.timeouts" r.Flow.timeouts;
      addi "sender.rtt_samples" r.Flow.rtt_samples)
    records

let add_links links ~duration_s =
  List.iter
    (fun l ->
      addi "link.offered" (Link.packets_offered l);
      addi "link.delivered" (Link.packets_delivered l);
      addi "link.drops" (Link.drops l);
      addi "link.ecn_marks" (Link.ecn_marks l);
      add "link.queue_wait_s" (Link.total_queue_wait l);
      add "link.busy_s" (Link.busy_time l);
      add "link.capacity_s" duration_s)
    links

let add_nodes nodes =
  List.iter
    (fun n ->
      addi "node.unroutable" (Node.unroutable_drops n);
      addi "node.unclaimed" (Node.unclaimed_deliveries n))
    nodes

let add_server s =
  addi "context_server.flushes" (Context_server.flush_count s);
  addi "context_server.evictions" (Context_server.eviction_count s);
  addi "context_server.resident" (Context_server.resident_paths s);
  add "context_server.shard_jain"
    (Stats.jain
       (Array.map (fun st -> float_of_int st.Context_server.lookups) (Context_server.shard_stats s)))

let add_tracer tr =
  addi "cc.made" tr.cc.Cc_wrap.made;
  (* Lookups run inside controller construction; count them once. *)
  addi "cc.make_self_ns" (tr.cc.Cc_wrap.make_ns - tr.lookup_ns);
  addi "cc.acks" tr.cc.Cc_wrap.acks;
  addi "cc.ack_ns" tr.cc.Cc_wrap.ack_ns;
  addi "cc.losses" tr.cc.Cc_wrap.losses;
  addi "cc.timeouts" tr.cc.Cc_wrap.timeouts;
  addi "cc.busy_ns" (Cc_wrap.busy_ns tr.cc - tr.lookup_ns);
  addi "node.forward_ns" tr.node_ns;
  addi "node.forwards" tr.forwards;
  addi "cs.lookup_ns" tr.lookup_ns;
  addi "cs.lookups" tr.lookups;
  addi "cs.report_ns" tr.report_ns;
  addi "cs.reports" tr.reports

(* {1 dumbbell_onoff: the Figure 2b cell} *)

let dumbbell_horizon_s = 120.

let dumbbell_rep ?tr scenario =
  let config =
    { Scenario.high_utilization with Scenario.duration_s = dumbbell_horizon_s; seed = scenario }
  in
  let probes = ref 0 and t_built = ref 0 and t_start = ref 0 in
  let engine = ref None and dumbbell = ref None in
  let observe e (d : Topology.dumbbell) =
    t_built := Clock.now_ns ();
    engine := Some e;
    dumbbell := Some d;
    start_probe e probes t_start;
    match tr with
    | None -> ()
    | Some tr ->
      sampler e ~every:0.05 ~until:dumbbell_horizon_s probes (fun () ->
          hmax "engine.pending_max" (float_of_int (Engine.pending e));
          hmax "link.queue_max" (float_of_int (Link.queue_length d.Topology.bottleneck)));
      (* Topology.dumbbell's own wiring (Node.receive on the far router), timed. *)
      let timed_receive router h =
        let t0 = Clock.now_ns () in
        Node.receive router h;
        tr.node_ns <- tr.node_ns + (Clock.now_ns () - t0);
        tr.forwards <- tr.forwards + 1
      in
      Link.set_receiver d.Topology.bottleneck (timed_receive d.Topology.right_router);
      Link.set_receiver d.Topology.reverse_bottleneck (timed_receive d.Topology.left_router)
  in
  let cc_factory =
    Option.map
      (fun tr _ -> Cc_wrap.factory tr.cc (fun () -> Cubic.make Cubic.default_params))
      tr
  in
  let t0 = Clock.now_ns () in
  let r = Scenario.run ?cc_factory ~observe config in
  let t1 = Clock.now_ns () in
  let e = Option.get !engine and d = Option.get !dumbbell in
  let events = Engine.executed e - !probes in
  let work = Link.packets_delivered d.Topology.bottleneck in
  (match tr with
  | None -> ()
  | Some tr ->
    sim_spans tr ~t0 ~t_built:!t_built ~t_start:!t_start ~t1;
    add_tracer tr;
    addi "engine.events" events;
    addi "work" work;
    add_links [ d.Topology.bottleneck ] ~duration_s:dumbbell_horizon_s;
    add_nodes
      (d.Topology.left_router :: d.Topology.right_router
      :: (Array.to_list d.Topology.senders @ Array.to_list d.Topology.receivers));
    hmax "packet.high_water" (float_of_int (Packet.high_water d.Topology.pool));
    addi "packet.in_use_end" (Packet.in_use d.Topology.pool);
    add_records r.Scenario.records);
  {
    setup_ns = !t_start - t0;
    measure_ns = t1 - !t_start;
    work;
    ops = 1;
    failed = 0;
    probe_ns = 0;
    fingerprint =
      Printf.sprintf "tput=%h qdelay=%h loss=%h util=%h power=%h conns=%d events=%d"
        r.Scenario.throughput_bps r.Scenario.queueing_delay_s r.Scenario.loss_rate
        r.Scenario.utilization r.Scenario.power r.Scenario.connections events;
  }

(* {1 wan_remyphi_flap: Remy-Phi on the WAN mesh under link flaps}

   The composition of [Cc_matrix]'s remy-phi cell: a compiled Remy-Phi
   table per connection, fed by one context-server lookup when the
   connection starts and reporting back when it ends. *)

let wan_horizon_s = 100.
let remy_phi_table = lazy (Compiled_table.compile (Phi_remy.Pretrained.remy_phi ()))

let wan_rep ?tr scenario =
  let table = Lazy.force remy_phi_table in
  let probes = ref 0 and t_built = ref 0 and t_start = ref 0 in
  let engine = ref None and built = ref None and server = ref None in
  let util_feed : Remy_cc.util_feed ref = ref `None in
  let reporter = ref (fun (_ : Flow.conn_stats) -> ()) in
  let t0 = Clock.now_ns () in
  let zoo = Zoo.wan () in
  let path = zoo.Zoo.name in
  let observe e b =
    t_built := Clock.now_ns ();
    engine := Some e;
    built := Some b;
    let s = Context_server.create e ~capacity_bps:zoo.Zoo.bottleneck_bw_bps () in
    server := Some s;
    start_probe e probes t_start;
    match tr with
    | None ->
      util_feed := `At_start (fun () -> (Context_server.lookup s ~path).Context.utilization);
      reporter := fun stats -> Context_server.report_stats s ~path stats
    | Some tr ->
      util_feed :=
        `At_start
          (fun () ->
            let ctx, ns = timed (fun () -> Context_server.lookup s ~path) in
            tr.lookup_ns <- tr.lookup_ns + ns;
            tr.lookups <- tr.lookups + 1;
            ctx.Context.utilization);
      (reporter :=
         fun stats ->
           let (), ns = timed (fun () -> Context_server.report_stats s ~path stats) in
           tr.report_ns <- tr.report_ns + ns;
           tr.reports <- tr.reports + 1);
      let links = Array.map (Topology.link_of b) zoo.Zoo.bottlenecks in
      sampler e ~every:0.05 ~until:wan_horizon_s probes (fun () ->
          hmax "engine.pending_max" (float_of_int (Engine.pending e));
          Array.iter (fun l -> hmax "link.queue_max" (float_of_int (Link.queue_length l))) links;
          hmax "context_server.pending_max" (float_of_int (Context_server.pending_paths s)))
  in
  let make () = Remy_cc.make ~table ~util:!util_feed () in
  let cc_factory =
    match tr with None -> fun _ -> make | Some tr -> fun _ -> Cc_wrap.factory tr.cc make
  in
  let r =
    Scenario.run_zoo ~cc_factory ~dynamics:Dynamics.default_flap ~duration_s:wan_horizon_s
      ~seed:scenario
      ~on_conn_end:(fun stats -> !reporter stats)
      ~observe zoo
  in
  let t1 = Clock.now_ns () in
  let e = Option.get !engine and b = Option.get !built and s = Option.get !server in
  let events = Engine.executed e - !probes in
  let links = Array.to_list (Array.map (Topology.link_of b) zoo.Zoo.bottlenecks) in
  let work = List.fold_left (fun acc l -> acc + Link.packets_delivered l) 0 links in
  (match tr with
  | None -> ()
  | Some tr ->
    sim_spans tr ~t0 ~t_built:!t_built ~t_start:!t_start ~t1;
    add_tracer tr;
    addi "engine.events" events;
    addi "work" work;
    add_links links ~duration_s:wan_horizon_s;
    let sites = 4 and hosts = 3 in
    add_nodes
      (List.concat
         (List.init sites (fun site ->
              Topology.node b ~id:(Zoo.wan_site_router_id site)
              :: List.init hosts (fun slot -> Topology.node b ~id:(Zoo.wan_host_id ~site ~slot)))));
    let pool = Topology.island_pool b ~island:0 in
    hmax "packet.high_water" (float_of_int (Packet.high_water pool));
    addi "packet.in_use_end" (Packet.in_use pool);
    add_records r.Scenario.z_records;
    add_server s);
  {
    setup_ns = !t_start - t0;
    measure_ns = t1 - !t_start;
    work;
    ops = 1;
    failed = 0;
    probe_ns = 0;
    fingerprint =
      Printf.sprintf
        "tput=%h qdelay=%h delay=%h loss=%h util=%h power=%h jain=%h p99fct=%h conns=%d \
         events=%d lookups=%d reports=%d"
        r.Scenario.z_throughput_bps r.Scenario.z_queueing_delay_s r.Scenario.z_delay_s
        r.Scenario.z_loss_rate r.Scenario.z_utilization r.Scenario.z_power r.Scenario.z_jain
        r.Scenario.z_p99_fct_s r.Scenario.z_connections events
        (Context_server.lookup_count s) (Context_server.report_count s);
  }

(* {1 parking_lot_pdes: the 1000-sender parking lot on the parallel engine}

   [Parking_lot.run] builds, runs and harvests in one call; its own
   [wall_s] brackets [Pdes.run], so set-up is the rest of the call. *)

let parking_horizon_s = 1.0

let parking_rep ?tr ~jobs scenario =
  let spec = { Parking_lot.default_spec with Parking_lot.duration_s = parking_horizon_s; seed = scenario } in
  let cpu0 = Sys.time () in
  let t0 = Clock.now_ns () in
  let r = Parking_lot.run ~jobs ~spec () in
  let t1 = Clock.now_ns () in
  let cpu = Sys.time () -. cpu0 in
  let measure_ns = int_of_float (r.Parking_lot.wall_s *. 1e9) in
  let setup_ns = t1 - t0 - measure_ns in
  let work = Array.fold_left (fun acc h -> acc + h.Parking_lot.delivered) 0 r.Parking_lot.hop_stats in
  (match tr with
  | None -> ()
  | Some tr ->
    let s = tr.spans in
    let rep = Span.add s "rep" ~start:t0 ~stop:t1 in
    (* Parking_lot.run builds before Pdes.run and harvests after it; the
       split between the two is not visible from outside, so the
       measured window is placed after the set-up. *)
    ignore (Span.add s ~parent:rep "scenario.setup" ~start:t0 ~stop:(t0 + setup_ns));
    ignore (Span.add s ~parent:rep "pdes.run" ~start:(t0 + setup_ns) ~stop:t1);
    addi "build_ns" setup_ns;
    addi "measure_ns" measure_ns;
    addi "engine.events" r.Parking_lot.events;
    addi "work" work;
    Array.iter
      (fun h ->
        addi "link.delivered" h.Parking_lot.delivered;
        addi "link.offered" (h.Parking_lot.delivered + h.Parking_lot.drops);
        addi "link.drops" h.Parking_lot.drops;
        add "link.busy_s" (h.Parking_lot.utilization *. parking_horizon_s);
        add "link.capacity_s" parking_horizon_s)
      r.Parking_lot.hop_stats;
    addi "sender.connections" (Parking_lot.senders spec);
    addi "sender.retx" r.Parking_lot.retransmitted;
    set "pdes.islands" (float_of_int r.Parking_lot.islands);
    set "pdes.jobs" (float_of_int r.Parking_lot.jobs);
    addi "pdes.windows" (int_of_float (Float.ceil (parking_horizon_s /. r.Parking_lot.window_s)));
    addi "pdes.boundary_pkts" r.Parking_lot.boundary_packets;
    let delivered = Array.map (fun h -> float_of_int h.Parking_lot.delivered) r.Parking_lot.hop_stats in
    add "pdes.imbalance" (Stats.maximum delivered /. Stats.mean delivered);
    (* CPU seconds of the whole call, minus the serial set-up, over the
       core-seconds the workers had. *)
    add "pdes.cpu_frac"
      ((cpu -. Clock.to_s setup_ns) /. (r.Parking_lot.wall_s *. float_of_int r.Parking_lot.jobs)));
  { setup_ns; measure_ns; work; ops = 1; failed = 0; probe_ns = 0;
    fingerprint = r.Parking_lot.fingerprint }

(* {1 context_service: open-loop replay against one sharded server}

   A Zipf [Cloud_trace] batch becomes the swarm's two-message protocol
   (a lookup at flow start, a report at flow end), pre-encoded and
   sorted by trace time.  Messages are then due at a fixed wall-clock
   rate; each goes through request decode, the virtual-clock advance,
   [Context_server.handle], response encode and decode and, for
   lookups, the compiled policy.  Latency is timed from the due time,
   so a stall delays every later message. *)

let cs_flows = 20_000
let cs_interval_ns = 4_000
let cs_epoch_s = 1.

type op = { time : float; seq : int; wire : string; is_lookup : bool }

let cs_generate scenario =
  let rng = Prng.create ~seed:scenario in
  let trace =
    { Cloud_trace.default_config with Cloud_trace.flows_per_minute = 120_000.; horizon_minutes = 1 }
  in
  let ops = ref [] and emitted = ref 0 in
  let exception Enough in
  (try
     Cloud_trace.iter rng trace (fun flow ->
         if !emitted >= cs_flows then raise Enough;
         let i = !emitted in
         incr emitted;
         let path = "subnet-" ^ string_of_int (Cloud_trace.dst_subnet flow) in
         (* A quarter of the lookups demand a fresh answer, the rest
            tolerate two epochs of staleness. *)
         let max_staleness = if i land 3 = 0 then 0 else 2 in
         let lookup = Context_wire.request_to_string (Context_wire.Lookup { path; max_staleness }) in
         let report =
           Context_wire.request_to_string
             (Context_wire.Report
                {
                  path;
                  bytes = flow.Cloud_trace.bytes;
                  duration_s = flow.Cloud_trace.duration_s;
                  min_rtt = 0.02;
                  mean_rtt = 0.02 +. (float_of_int (i land 15) *. 1e-4);
                  retransmitted = (if i mod 50 = 0 then 1 else 0);
                  segments = flow.Cloud_trace.packets;
                })
         in
         let start = flow.Cloud_trace.start_s in
         ops :=
           { time = start +. flow.Cloud_trace.duration_s; seq = (2 * i) + 1; wire = report; is_lookup = false }
           :: { time = start; seq = 2 * i; wire = lookup; is_lookup = true }
           :: !ops)
   with Enough -> ());
  let ops = Array.of_list !ops in
  Array.sort
    (fun a b -> match Float.compare a.time b.time with 0 -> Int.compare a.seq b.seq | c -> c)
    ops;
  ops

(* A learned table over all five algorithms, so lookups exercise both
   the compiled hits and the heuristic fallback. *)
let cs_policy =
  lazy
    (let policy = Policy.create () in
     let bucket u n q = { Context.u_bucket = u; n_bucket = n; q_bucket = q } in
     List.iter
       (fun (b, choice) -> Policy.learn policy b choice)
       [
         (bucket 0 0 0, Cc_algo.Remy);
         (bucket 0 1 0, Cc_algo.Remy_phi);
         (bucket 1 2 1, Cc_algo.Vegas);
         (bucket 2 3 1, Cc_algo.Reno 1.);
         (bucket 3 3 2, Cc_algo.Cubic Cubic.default_params);
       ];
     Policy.Compiled.compile policy)

let algo_slot = function
  | Cc_algo.Cubic _ -> 0
  | Cc_algo.Reno _ -> 1
  | Cc_algo.Vegas -> 2
  | Cc_algo.Remy -> 3
  | Cc_algo.Remy_phi -> 4

let fnv_string h s =
  let h = ref h in
  String.iter (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0xffffffff) s;
  !h

(* Latency and lateness over the untraced repetitions of the run. *)
let lookup_hist = Hist.create ()
let report_hist = Hist.create ()
let late_hist = Hist.create ()

let cs_rep ?tr scenario =
  let policy = Lazy.force cs_policy in
  let t0 = Clock.now_ns () in
  let ops = cs_generate scenario in
  let t_gen = Clock.now_ns () in
  let engine = Engine.create () in
  let server =
    Context_server.create engine ~capacity_bps:20e6 ~window_s:10. ~epoch_s:cs_epoch_s ~shards:4
      ~max_paths_per_shard:512 ~ttl_epochs:8 ()
  in
  let n = Array.length ops in
  let choices = Array.make 5 0 in
  let checksum = ref 0x811c9dc5 and failed = ref 0 and busy = ref 0 in
  let lookups = ref 0 and stale = ref 0 and wire_bytes = ref 0 and wire_errors = ref 0 in
  (* Per-call timing, used only when traced: [clock ()] reads the clock
     when traced and costs nothing otherwise. *)
  let traced = Option.is_some tr in
  let clock () = if traced then Clock.now_ns () else 0 in
  let decode_ns = ref 0 and encode_ns = ref 0 and advance_ns = ref 0 in
  let lookup_ns = ref 0 and report_ns = ref 0 and choice_ns = ref 0 and wait_ns = ref 0 in
  let start = Clock.now_ns () + cs_interval_ns in
  for k = 0 to n - 1 do
    let op = ops.(k) in
    let due = start + (k * cs_interval_ns) in
    let w0 = clock () in
    while Clock.now_ns () < due do
      ()
    done;
    let t_s = Clock.now_ns () in
    if traced then wait_ns := !wait_ns + (t_s - w0);
    let c0 = clock () in
    let decoded = Context_wire.decode_request op.wire in
    let c1 = clock () in
    decode_ns := !decode_ns + (c1 - c0);
    (match decoded with
    | Error _ ->
      incr failed;
      incr wire_errors
    | Ok req -> (
      Engine.run ~until:op.time engine;
      let c2 = clock () in
      let resp = Context_server.handle server req in
      let c3 = clock () in
      let wire = Context_wire.response_to_string resp in
      let c4 = clock () in
      let back = Context_wire.decode_response wire in
      let c5 = clock () in
      advance_ns := !advance_ns + (c2 - c1);
      encode_ns := !encode_ns + (c4 - c3);
      decode_ns := !decode_ns + (c5 - c4);
      checksum := fnv_string !checksum wire;
      if traced then wire_bytes := !wire_bytes + String.length op.wire + String.length wire;
      match (req, back) with
      | Context_wire.Lookup { max_staleness; _ }, Ok (Context_wire.Context_of { ctx; epoch }) ->
        lookup_ns := !lookup_ns + (c3 - c2);
        incr lookups;
        let current = int_of_float (Engine.now engine /. cs_epoch_s) in
        if current - epoch > Stdlib.max 0 max_staleness then incr failed;
        if epoch < current then incr stale;
        let slot = algo_slot (Policy.Compiled.choice_for policy ctx) in
        choices.(slot) <- choices.(slot) + 1;
        choice_ns := !choice_ns + (clock () - c5)
      | Context_wire.Report _, Ok (Context_wire.Accepted _) -> report_ns := !report_ns + (c3 - c2)
      | _, Error _ ->
        incr failed;
        incr wire_errors
      | _ -> incr failed));
    let t_e = Clock.now_ns () in
    busy := !busy + (t_e - t_s);
    if not traced then begin
      Hist.record late_hist (t_s - due);
      Hist.record (if op.is_lookup then lookup_hist else report_hist) (t_e - due)
    end;
    if traced && k land 255 = 0 then
      hmax "context_server.pending_max" (float_of_int (Context_server.pending_paths server))
  done;
  let t1 = Clock.now_ns () in
  (match tr with
  | None -> ()
  | Some tr ->
    let s = tr.spans in
    let rep = Span.add s "rep" ~start:t0 ~stop:t1 in
    ignore (Span.add s ~parent:rep "trace.generate" ~start:t0 ~stop:t_gen);
    let replay = Span.add s ~parent:rep "replay" ~start:t_gen ~stop:t1 in
    (* The generator's waits for due times count as the load generator's. *)
    Span.charge s replay
      (!decode_ns + !encode_ns + !advance_ns + !lookup_ns + !report_ns + !choice_ns + !wait_ns);
    addi "build_ns" (t_gen - t0);
    addi "measure_ns" !busy;
    addi "work" n;
    addi "cs.msgs" n;
    addi "context_wire.decode_ns" !decode_ns;
    addi "context_wire.encode_ns" !encode_ns;
    addi "context_wire.bytes" !wire_bytes;
    addi "context_wire.errors" !wire_errors;
    addi "cs.advance_ns" !advance_ns;
    addi "cs.lookup_ns" !lookup_ns;
    addi "cs.lookups" !lookups;
    addi "cs.report_ns" !report_ns;
    addi "cs.reports" (n - !lookups);
    addi "policy.choice_ns" !choice_ns;
    addi "cs.stale" !stale;
    add_server server);
  {
    setup_ns = t_gen - t0;
    measure_ns = !busy;
    work = n;
    ops = n;
    failed = !failed;
    probe_ns = 0;
    fingerprint =
      Printf.sprintf
        "msgs=%d lookups=%d checksum=%08x choices=%s resident=%d evicted=%d flushes=%d" n !lookups
        !checksum
        (String.concat "," (Array.to_list (Array.map string_of_int choices)))
        (Context_server.resident_paths server)
        (Context_server.eviction_count server)
        (Context_server.flush_count server);
  }

(* {1 Workloads} *)

type workload = {
  name : string;
  scenarios : int;  (** recorded inputs: scenario seeds 1 .. scenarios *)
  run : ?tr:tracer -> int -> rep;
  unit_name : string;  (** what [rep.work] counts *)
  domains : int;  (** domains the unit of work runs on, and so the machine probe *)
}

let workloads ~jobs =
  [
    {
      name = "dumbbell_onoff";
      scenarios = 8;
      run = dumbbell_rep;
      unit_name = "bottleneck packets";
      domains = 1;
    };
    {
      name = "parking_lot_pdes";
      scenarios = 8;
      run = (fun ?tr s -> parking_rep ?tr ~jobs s);
      unit_name = "bottleneck packets";
      domains = jobs;
    };
    {
      name = "wan_remyphi_flap";
      scenarios = 8;
      run = wan_rep;
      unit_name = "bottleneck packets";
      domains = 1;
    };
    { name = "context_service"; scenarios = 8; run = cs_rep; unit_name = "messages"; domains = 1 };
  ]

(* Repetition [i] of a run with [--seed seed] replays recorded input
   [scenario_seed]: the seed picks where in the recorded set a run
   starts, and a run cycles through all of it. *)
let scenario_seed w ~seed i =
  let k = w.scenarios in
  1 + ((((seed mod k) + k) mod k + i) mod k)

(* {1 Running and checking} *)

(* The recorded outputs, one tab-separated line per (workload, scenario
   seed): [workload, seed, fingerprint]. *)
let load_fingerprints path =
  let t = Hashtbl.create 64 in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         match String.split_on_char '\t' (input_line ic) with
         | [ workload; seed; fp ] -> Hashtbl.replace t (workload, int_of_string seed) fp
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic
  end;
  t

let attempted = ref 0
let failed_ops = ref 0
let mismatches = ref 0

let check fps w scenario rep =
  attempted := !attempted + rep.ops;
  match Hashtbl.find_opt fps (w.name, scenario) with
  | Some fp when fp = rep.fingerprint -> failed_ops := !failed_ops + rep.failed
  | recorded ->
    incr mismatches;
    failed_ops := !failed_ops + rep.ops;
    Printf.eprintf "fingerprint mismatch: %s scenario %d\n  got      %s\n  recorded %s\n%!" w.name
      scenario rep.fingerprint
      (Option.value recorded ~default:"(none)")

(* Repetitions until [deadline], at least [min_reps] of them; with
   [spans] each one is traced by a fresh tracer recording into it. *)
let phase ?spans ?(run = fun w ?tr s -> w.run ?tr s) fps w ~seed ~deadline ~min_reps =
  let rec loop i acc =
    if i >= min_reps && Clock.now_ns () >= deadline then List.rev acc
    else begin
      let s = scenario_seed w ~seed i in
      let tr = Option.map tracer spans in
      (* Both probes run on a freshly collected heap, so neither pays for
         a repetition's garbage and only the machine moves them. *)
      let settled_probe () =
        Gc.full_major ();
        Calib.probe_ns ~domains:w.domains ()
      in
      let t0 = Clock.now_ns () in
      let p0 = settled_probe () in
      let t1 = Clock.now_ns () in
      let rep = run w ?tr s in
      let t2 = Clock.now_ns () in
      let rep = { rep with probe_ns = (p0 + settled_probe ()) / 2 } in
      Option.iter
        (fun spans ->
          ignore (Span.add spans "harness" ~start:t0 ~stop:t1);
          ignore (Span.add spans "harness" ~start:t2 ~stop:(Clock.now_ns ())))
        spans;
      check fps w s rep;
      loop (i + 1) (rep :: acc)
    end
  in
  loop 0 []

let median_of f reps = Stats.median (Array.of_list (List.map f reps))
let quartiles f reps =
  let xs = Array.of_list (List.map f reps) in
  (Stats.percentile xs ~p:25., Stats.percentile xs ~p:75.)

let ratio a b = if b = 0. then 0. else a /. b
let heap_peak_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* {1 Output} *)

let print_metric name value unit_ note =
  Printf.printf "  %-30s %16.6g %-6s %s\n" name value unit_ note

let json_result metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (!mismatches = 0 && !failed_ops = 0)
    (Stdlib.max 1 !attempted) !failed_ops;
  List.iteri
    (fun i (name, value, unit_) ->
      let value = if Float.is_finite value then value else 0. in
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name value unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let percentile_line name hist p =
  match Hist.percentile hist p with
  | None -> print_metric name 0. "us" "(no samples)"
  | Some p as pc ->
    print_metric name
      (float_of_int p.Hist.value /. 1e3)
      "us"
      (Printf.sprintf "(n=%d, %d above%s)" p.Hist.samples p.Hist.above
         (if Hist.reportable pc then "" else "; fewer than 10 above: not reportable"))

(* The value of a percentile, or 0 when fewer than ten samples lie
   beyond it. *)
let percentile_us hist p =
  let pc = Hist.percentile hist p in
  match pc with Some x when Hist.reportable pc -> float_of_int x.Hist.value /. 1e3 | _ -> 0.

(* A repetition's time in seconds, raw and scaled to the reference probe
   speed (see {!Calib}). *)
let raw_s ns = Clock.to_s ns
let scaled_s r ns = Clock.to_s ns *. Calib.reference_ns /. float_of_int r.probe_ns

let end_to_end w reps =
  let both f = (median_of (f (fun _ ns -> raw_s ns)) reps, median_of (f scaled_s) reps) in
  let setup_raw, setup = both (fun s r -> s r r.setup_ns) in
  let wall_raw, wall = both (fun s r -> s r r.measure_ns) in
  let rate_raw, rate = both (fun s r -> float_of_int r.work /. s r r.measure_ns) in
  let q25, q75 = quartiles (fun r -> scaled_s r r.measure_ns) reps in
  Printf.printf
    "end-to-end (%d repetitions; %s per repetition: %.0f median; medians scaled to the machine \
     probe, raw in brackets)\n"
    (List.length reps) w.unit_name
    (median_of (fun r -> float_of_int r.work) reps);
  print_metric "setup_s" setup "s" (Printf.sprintf "[%.6g]" setup_raw);
  print_metric "wall_s" wall "s" (Printf.sprintf "[%.6g]  quartiles %.6g .. %.6g" wall_raw q25 q75);
  print_metric "ops_per_s" rate "1/s"
    (Printf.sprintf "[%.6g]  %s per measured second" rate_raw w.unit_name);
  print_metric "probe_ns" (median_of (fun r -> float_of_int r.probe_ns) reps) "ns"
    (Printf.sprintf "machine probe (reference %.0f)" Calib.reference_ns);
  let heap = heap_peak_mb () in
  print_metric "heap_peak_mb" heap "MB" "(GC top heap)";
  print_metric "failed_frac" (ratio (float_of_int !failed_ops) (float_of_int !attempted)) "ratio" "";
  if w.name = "context_service" then begin
    percentile_line "lookup_p50_us" lookup_hist 50.;
    percentile_line "lookup_p99_us" lookup_hist 99.;
    percentile_line "report_p99_us" report_hist 99.
  end;
  [
    ("setup_s", setup, "s");
    ("wall_s", wall, "s");
    ("ops_per_s", rate, "1/s");
    ("heap_peak_mb", heap, "MB");
  ]

(* Every per-layer metric, in BENCHMARK.json order, with its unit and its
   value computed from the accumulated sums of [n] traced repetitions.  A
   workload that does not exercise a layer reports 0 for it. *)
let per_layer ~n =
  let per_rep k = get k /. float_of_int n in
  let cs_lookups = get "cs.lookups" in
  let msgs = get "cs.msgs" in
  let segments = get "sender.segments" in
  [
    ("engine.events", "count", per_rep "engine.events");
    ("engine.events_per_pkt", "ratio", ratio (get "engine.events") (get "work"));
    ("engine.ns_per_event", "ns", ratio (get "measure_ns") (get "engine.events"));
    ("engine.pending_max", "count", get "engine.pending_max");
    ("link.offered", "count", per_rep "link.offered");
    ("link.delivered", "count", per_rep "link.delivered");
    ("link.drops", "count", per_rep "link.drops");
    ("link.delivered_frac", "ratio", ratio (get "link.delivered") (get "link.offered"));
    ("link.ecn_marks", "count", per_rep "link.ecn_marks");
    ("link.queue_wait_ms", "ms", 1e3 *. ratio (get "link.queue_wait_s") (get "link.delivered"));
    ("link.utilization", "ratio", ratio (get "link.busy_s") (get "link.capacity_s"));
    ("link.queue_max", "count", get "link.queue_max");
    ("node.forward_ns", "ns", ratio (get "node.forward_ns") (get "node.forwards"));
    ("node.forwards", "count", per_rep "node.forwards");
    ("node.unroutable", "count", per_rep "node.unroutable");
    ("node.unclaimed", "count", per_rep "node.unclaimed");
    ("packet.high_water", "count", get "packet.high_water");
    ("packet.in_use_end", "count", per_rep "packet.in_use_end");
    ("sender.connections", "count", per_rep "sender.connections");
    ("sender.segments", "count", per_rep "sender.segments");
    ("sender.retx_frac", "ratio", ratio (get "sender.retx") segments);
    ("sender.timeouts", "count", per_rep "sender.timeouts");
    ("sender.rtt_samples", "count", per_rep "sender.rtt_samples");
    ("cc.made", "count", per_rep "cc.made");
    ("cc.make_ns", "ns", ratio (get "cc.make_self_ns") (get "cc.made"));
    ("cc.on_ack_calls", "count", per_rep "cc.acks");
    ("cc.on_ack_ns", "ns", ratio (get "cc.ack_ns") (get "cc.acks"));
    ("cc.on_loss_calls", "count", per_rep "cc.losses");
    ("cc.on_timeout_calls", "count", per_rep "cc.timeouts");
    ("cc.self_frac", "ratio", ratio (get "cc.busy_ns") (get "measure_ns"));
    ("context_server.lookup_ns", "ns", ratio (get "cs.lookup_ns") cs_lookups);
    ("context_server.report_ns", "ns", ratio (get "cs.report_ns") (get "cs.reports"));
    ("context_server.advance_ns", "ns", ratio (get "cs.advance_ns") msgs);
    ("context_server.flushes", "count", per_rep "context_server.flushes");
    ("context_server.evictions", "count", per_rep "context_server.evictions");
    ("context_server.resident", "count", per_rep "context_server.resident");
    ("context_server.pending_max", "count", get "context_server.pending_max");
    ("context_server.shard_jain", "ratio", per_rep "context_server.shard_jain");
    ("context_server.stale_frac", "ratio", ratio (get "cs.stale") cs_lookups);
    ("context_wire.decode_ns", "ns", ratio (get "context_wire.decode_ns") msgs);
    ("context_wire.encode_ns", "ns", ratio (get "context_wire.encode_ns") msgs);
    ("context_wire.bytes_per_msg", "B", ratio (get "context_wire.bytes") msgs);
    ("context_wire.errors", "count", per_rep "context_wire.errors");
    ("policy.choice_ns", "ns", ratio (get "policy.choice_ns") (if msgs > 0. then cs_lookups else 0.));
    ("lookup_p50_us", "us", percentile_us lookup_hist 50.);
    ("lookup_p99_us", "us", percentile_us lookup_hist 99.);
    ("report_p99_us", "us", percentile_us report_hist 99.);
    ("topology.build_s", "s", 1e-9 *. per_rep "build_ns");
    ("scenario.transport_s", "s", 1e-9 *. per_rep "transport_ns");
    ("scenario.measure_s", "s", 1e-9 *. per_rep "measure_ns");
    ("pdes.islands", "count", get "pdes.islands");
    ("pdes.jobs", "count", get "pdes.jobs");
    ("pdes.windows", "count", per_rep "pdes.windows");
    ("pdes.boundary_pkts", "count", per_rep "pdes.boundary_pkts");
    ("pdes.efficiency", "ratio", get "pdes.efficiency");
    ("pdes.island_imbalance", "ratio", per_rep "pdes.imbalance");
    ("pdes.cpu_busy_frac", "ratio", per_rep "pdes.cpu_frac");
    ("gc.minor_words_per_pkt", "words", ratio (get "gc.minor_words") (get "work"));
    ("gc.major_collections", "count", per_rep "gc.major_collections");
    ("gc.promoted_words", "words", per_rep "gc.promoted_words");
    ("loadgen.late_p99_us", "us", percentile_us late_hist 99.);
    ("loadgen.msgs", "count", if msgs > 0. then per_rep "work" else 0.);
    ("trace.overhead_frac", "ratio", get "trace.overhead_frac");
    ("trace.coverage", "ratio", get "trace.coverage");
    ("host.nproc", "count", get "host.nproc");
    ("host.probe_ns", "ns", get "host.probe_ns");
  ]

(* {1 Main} *)

let fingerprints_path = "perfbench/fingerprints.txt"
let spans_dir = ".bench_build/perfbench-spans"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N picks the inputs");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--record", Arg.Set record, " print the fingerprint of every recorded input");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  (* The minor-heap size every sweep worker runs with. *)
  Phi_runner.Pool.tune_gc ();
  let nproc = Domain.recommended_domain_count () in
  let islands = Parking_lot.default_spec.Parking_lot.segments in
  let jobs = Stdlib.max 1 (Stdlib.min nproc islands) in
  let w =
    match List.find_opt (fun w -> w.name = !workload) (workloads ~jobs) with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  if !record then begin
    for s = 1 to w.scenarios do
      Printf.printf "%s\t%d\t%s\n" w.name s (w.run s).fingerprint
    done;
    exit 0
  end;
  let fps = load_fingerprints fingerprints_path in
  let serial = w.name <> "parking_lot_pdes" in
  let jobs_used = if serial then 1 else jobs in
  Printf.printf "workload %s  seed %d  nproc %d  jobs %d\n%!" w.name !seed nproc jobs_used;
  (* Process-level set-up (table compilation, policy) and one warm-up
     repetition, checked but not timed. *)
  ignore (Lazy.force remy_phi_table);
  ignore (Lazy.force cs_policy);
  let t_begin = Clock.now_ns () in
  let warm = scenario_seed w ~seed:!seed 0 in
  check fps w warm (w.run warm);
  List.iter Hist.clear [ lookup_hist; report_hist; late_hist ];
  let budget_ns = int_of_float (!seconds *. 1e9) in
  let metrics =
    if !trace = 0 then
      end_to_end w (phase fps w ~seed:!seed ~deadline:(t_begin + budget_ns) ~min_reps:3)
    else begin
      let parts = if serial || jobs = 1 then 2 else 3 in
      let slice = budget_ns / parts in
      let base = phase fps w ~seed:!seed ~deadline:(t_begin + slice) ~min_reps:2 in
      ignore (end_to_end w base);
      let spans = Span.create () in
      let gc0 = Gc.quick_stat () in
      let t_traced = Clock.now_ns () in
      let traced = phase ~spans fps w ~seed:!seed ~deadline:(t_traced + slice) ~min_reps:2 in
      let traced_wall = Clock.now_ns () - t_traced in
      let gc1 = Gc.quick_stat () in
      let n = List.length traced in
      add "gc.minor_words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
      add "gc.promoted_words" (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
      addi "gc.major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
      let median_measure reps = median_of (fun r -> scaled_s r r.measure_ns) reps in
      set "trace.overhead_frac" ((median_measure traced /. median_measure base) -. 1.);
      set "trace.coverage" (Span.attributed_share spans "rep");
      set "host.nproc" (float_of_int nproc);
      set "host.probe_ns" (median_of (fun r -> float_of_int r.probe_ns) traced);
      if serial then begin
        set "pdes.islands" 1.;
        set "pdes.jobs" 1.
      end
      else if jobs = 1 then set "pdes.efficiency" 1.
      else begin
        let run _ ?tr:_ s = parking_rep ~jobs:1 s in
        let single =
          phase ~run fps w ~seed:!seed ~deadline:(Clock.now_ns () + slice) ~min_reps:2
        in
        (* Parallel efficiency is speed-up over jobs.  [jobs] never
           exceeds [nproc], so it never measures the scheduler instead. *)
        set "pdes.efficiency" (median_measure single /. (float_of_int jobs *. median_measure base))
      end;
      (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
      Span.write spans (Filename.concat spans_dir (Printf.sprintf "%s-seed%d.jsonl" w.name !seed));
      Printf.printf
        "per-layer (%d traced repetitions; top-level spans cover %.4f of the traced wall; 0 = \
         layer not exercised)\n"
        n
        (float_of_int (Span.top_level_ns spans) /. float_of_int traced_wall);
      List.map
        (fun (name, unit_, value) ->
          print_metric name value unit_ "";
          (name, value, unit_))
        (per_layer ~n)
    end
  in
  Printf.printf "fingerprints: %s (%d mismatches)  failed %d of %d operations\n"
    (if !mismatches = 0 then "match" else "MISMATCH")
    !mismatches !failed_ops !attempted;
  print_endline (json_result metrics)
