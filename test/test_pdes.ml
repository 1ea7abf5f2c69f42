(* Tests for the conservative parallel-DES coordinator ([Phi_sim.Pdes])
   and the cross-island [Boundary_link]: window validation, and the
   central determinism contract — a partitioned run must replay the
   serial engine's delivery trace bit for bit, whatever the worker
   count. *)

module Engine = Phi_sim.Engine
module Pdes = Phi_sim.Pdes
module Packet = Phi_net.Packet
module Link = Phi_net.Link
module Boundary_link = Phi_net.Boundary_link
module Prng = Phi_util.Prng

(* {2 Coordinator validation} *)

let two_island_coordinator ~delay_s =
  let coord = Pdes.create () in
  let a = Pdes.add_island coord in
  let b = Pdes.add_island coord in
  let src_pool = Packet.create_pool () in
  let dst_pool = Packet.create_pool () in
  let bl =
    Boundary_link.create coord ~src:a ~dst:b ~src_pool ~dst_pool ~bandwidth_bps:1e9
      ~delay_s ~capacity_pkts:64
  in
  (coord, a, b, src_pool, dst_pool, bl)

let test_run_validation () =
  let rejects f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty coordinator" true
    (rejects (fun () -> Pdes.run ~until:1. (Pdes.create ())));
  let coord, _, _, _, _, _ = two_island_coordinator ~delay_s:0.01 in
  Alcotest.(check (float 0.)) "lookahead recorded" 0.01 (Pdes.lookahead_s coord);
  Alcotest.(check bool) "jobs 0" true (rejects (fun () -> Pdes.run ~jobs:0 ~until:1. coord));
  Alcotest.(check bool) "negative until" true
    (rejects (fun () -> Pdes.run ~until:(-1.) coord));
  Alcotest.(check bool) "window above lookahead" true
    (rejects (fun () -> Pdes.run ~window_s:0.02 ~until:1. coord));
  Alcotest.(check bool) "non-positive window" true
    (rejects (fun () -> Pdes.run ~window_s:0. ~until:1. coord));
  (* A window at exactly the lookahead is the intended operating point. *)
  Pdes.run ~window_s:0.01 ~until:0.05 coord

let test_lookahead_is_minimum () =
  let coord = Pdes.create () in
  Alcotest.(check (float 0.)) "no boundary yet" infinity (Pdes.lookahead_s coord);
  Pdes.note_lookahead coord 0.02;
  Pdes.note_lookahead coord 0.005;
  Pdes.note_lookahead coord 0.03;
  Alcotest.(check (float 0.)) "minimum wins" 0.005 (Pdes.lookahead_s coord);
  let rejects d = try Pdes.note_lookahead coord d; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero rejected" true (rejects 0.);
  Alcotest.(check bool) "infinite rejected" true (rejects infinity)

(* {2 Serial = partitioned delivery trace} *)

(* A randomized packet workload pushed through one link.  The serial
   reference sends through an ordinary [Link] on a lone engine; the
   partitioned run sends through a [Boundary_link] between two islands.
   Same queue, same serialization, same IEEE arrival arithmetic — so the
   delivery traces (time and every header field, rendered with [%h])
   must match exactly, at any worker count. *)

type pkt_spec = {
  at : float;
  p_flow : int;
  p_src : int;
  p_dst : int;
  p_seq : int;
  is_data : bool;
  retx : bool;
  ce : bool;
  has_echo : bool;
  echo_sent_at : float;
  echo_tx_time : float;
  ece : bool;
  sacks : (int * int) list;
}

let random_spec rng =
  let is_data = Prng.bool rng in
  {
    at = Prng.float_range rng ~lo:0. ~hi:0.5;
    p_flow = Prng.int rng ~bound:1000;
    p_src = Prng.int rng ~bound:100;
    p_dst = 100 + Prng.int rng ~bound:100;
    p_seq = Prng.int rng ~bound:1_000_000;
    is_data;
    retx = is_data && Prng.bool rng;
    ce = is_data && Prng.bool rng;
    has_echo = (not is_data) && Prng.bool rng;
    echo_sent_at = Prng.float_range rng ~lo:0. ~hi:1.;
    echo_tx_time = Prng.float_range rng ~lo:0. ~hi:0.01;
    ece = (not is_data) && Prng.bool rng;
    sacks =
      (if is_data then []
       else
         List.init
           (Prng.int rng ~bound:(Packet.max_sack_blocks + 1))
           (fun i ->
             let lo = (20 * i) + Prng.int rng ~bound:5 in
             (lo, lo + 1 + Prng.int rng ~bound:5)));
  }

let inject engine pool link spec =
  ignore
    (Engine.schedule_at engine ~time:spec.at (fun () ->
         let pkt =
           if spec.is_data then begin
             let h =
               Packet.acquire_data pool ~flow:spec.p_flow ~src:spec.p_src ~dst:spec.p_dst
                 ~seq:spec.p_seq ~now:(Engine.now engine) ~retransmit:spec.retx
             in
             if spec.ce then Packet.mark_ce pool h;
             h
           end
           else begin
             let h =
               Packet.acquire_ack pool ~flow:spec.p_flow ~src:spec.p_src ~dst:spec.p_dst
                 ~next_expected:spec.p_seq ~has_echo:spec.has_echo
                 ~echo_sent_at:spec.echo_sent_at ~echo_tx_time:spec.echo_tx_time ~ece:spec.ece
                 ~now:(Engine.now engine)
             in
             List.iter (fun (lo, hi) -> Packet.add_sack pool h ~lo ~hi) spec.sacks;
             h
           end
         in
         Link.send link pkt))

let describe pool ~now pkt =
  let base =
    Printf.sprintf "%h f=%d %d>%d seq=%d size=%d sent=%h" now (Packet.flow pool pkt)
      (Packet.src pool pkt) (Packet.dst pool pkt) (Packet.seq pool pkt) (Packet.size pool pkt)
      (Packet.sent_at pool pkt)
  in
  if Packet.is_data pool pkt then
    Printf.sprintf "%s data retx=%b ce=%b" base (Packet.retransmit pool pkt) (Packet.ce pool pkt)
  else
    Printf.sprintf "%s ack echo=%b es=%h etx=%h ece=%b sack=%s" base
      (Packet.ack_has_echo pool pkt)
      (Packet.ack_echo_sent_at pool pkt)
      (Packet.ack_echo_tx_time pool pkt)
      (Packet.ack_ece pool pkt)
      (String.concat ","
         (List.init (Packet.sack_count pool pkt) (fun i ->
              Printf.sprintf "%d-%d" (Packet.sack_lo pool pkt i) (Packet.sack_hi pool pkt i))))

let serial_trace ~bw ~delay ~capacity specs =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = Link.create engine pool ~bandwidth_bps:bw ~delay_s:delay ~capacity_pkts:capacity in
  let trace = ref [] in
  Link.set_receiver link (fun p ->
      trace := describe pool ~now:(Engine.now engine) p :: !trace;
      Packet.release pool p);
  List.iter (inject engine pool link) specs;
  Engine.run engine;
  List.rev !trace

let partitioned_trace ~jobs ~bw ~delay ~capacity ~until specs =
  let coord = Pdes.create () in
  let a = Pdes.add_island coord in
  let b = Pdes.add_island coord in
  let src_pool = Packet.create_pool () in
  let dst_pool = Packet.create_pool () in
  let bl =
    Boundary_link.create coord ~src:a ~dst:b ~src_pool ~dst_pool ~bandwidth_bps:bw
      ~delay_s:delay ~capacity_pkts:capacity
  in
  let trace = ref [] in
  let dst_engine = Pdes.engine b in
  Boundary_link.set_receiver bl (fun p ->
      trace := describe dst_pool ~now:(Engine.now dst_engine) p :: !trace;
      Packet.release dst_pool p);
  List.iter (inject (Pdes.engine a) src_pool (Boundary_link.egress bl)) specs;
  Pdes.run ~jobs ~until coord;
  Alcotest.(check int) "nothing left in transit" 0 (Boundary_link.in_transit bl);
  Alcotest.(check int) "no src cell leaked" 0 (Packet.in_use src_pool);
  Alcotest.(check int) "no dst cell leaked" 0 (Packet.in_use dst_pool);
  (List.rev !trace, Boundary_link.delivered bl)

let prop_partitioned_replays_serial =
  QCheck.Test.make ~name:"partitioned delivery trace = serial (jobs 1 and 2)" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let bw = Prng.float_range rng ~lo:1e6 ~hi:1e9 in
      let delay = Prng.float_range rng ~lo:1e-3 ~hi:0.05 in
      let capacity = 2 + Prng.int rng ~bound:30 in
      let n = 1 + Prng.int rng ~bound:40 in
      let specs = List.init n (fun _ -> random_spec rng) in
      (* Sends span [0, 0.5]; worst-case serialization of 41 full-size
         packets at 1 Mb/s is ~0.5 s; max delay 50 ms.  2 s covers every
         delivery with windows to spare. *)
      let until = 2.0 in
      let serial = serial_trace ~bw ~delay ~capacity specs in
      let p1, d1 = partitioned_trace ~jobs:1 ~bw ~delay ~capacity ~until specs in
      let p2, d2 = partitioned_trace ~jobs:2 ~bw ~delay ~capacity ~until specs in
      if serial = [] then QCheck.Test.fail_report "degenerate case: no deliveries";
      if d1 <> List.length serial then QCheck.Test.fail_report "delivered count diverged";
      if d1 <> d2 then QCheck.Test.fail_report "jobs changed delivered count";
      if p1 <> serial then QCheck.Test.fail_report "jobs-1 trace diverged from serial";
      if p2 <> serial then QCheck.Test.fail_report "jobs-2 trace diverged from serial";
      true)

(* {2 One window's handoff has no fixed bound} *)

let test_large_window_handoff () =
  (* 20,000 ACKs sent at time 0 all finish serializing inside the first
     10 ms window (6.4 ms at 1 Gb/s), so a single drain carries every
     one of them across. *)
  let n = 20_000 in
  let specs =
    List.init n (fun seq ->
        {
          at = 0.;
          p_flow = 1;
          p_src = 0;
          p_dst = 1;
          p_seq = seq;
          is_data = false;
          retx = false;
          ce = false;
          has_echo = false;
          echo_sent_at = 0.;
          echo_tx_time = 0.;
          ece = false;
          sacks = [];
        })
  in
  let bw = 1e9 and delay = 0.01 and capacity = n in
  let serial = serial_trace ~bw ~delay ~capacity specs in
  Alcotest.(check int) "serial delivers every ACK" n (List.length serial);
  List.iter
    (fun jobs ->
      let trace, delivered = partitioned_trace ~jobs ~bw ~delay ~capacity ~until:0.05 specs in
      Alcotest.(check int) (Printf.sprintf "jobs %d delivered" jobs) n delivered;
      Alcotest.(check (list string)) (Printf.sprintf "jobs %d trace = serial" jobs) serial trace)
    [ 1; 2 ]

(* {2 Boundary construction validation} *)

let test_boundary_create_validation () =
  let coord = Pdes.create () in
  let a = Pdes.add_island coord in
  let b = Pdes.add_island coord in
  let pool = Packet.create_pool () in
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero delay rejected" true
    (rejects (fun () ->
         Boundary_link.create coord ~src:a ~dst:b ~src_pool:pool ~dst_pool:pool
           ~bandwidth_bps:1e9 ~delay_s:0. ~capacity_pkts:4));
  Alcotest.(check bool) "same island rejected" true
    (rejects (fun () ->
         Boundary_link.create coord ~src:a ~dst:a ~src_pool:pool ~dst_pool:pool
           ~bandwidth_bps:1e9 ~delay_s:0.01 ~capacity_pkts:4));
  Alcotest.(check int) "island indices" 1 (Pdes.index b);
  Alcotest.(check int) "island count" 2 (Pdes.islands coord)

(* {2 Partitioning the topology zoo} *)

module Topology = Phi_net.Topology

let test_zoo_cut_lookaheads () =
  (* Every zoo entry declares its island cuts; the lookahead a
     partitioned build registers is what buys the parallel window, so
     it must match the topology's documented cut delays. *)
  let lookahead (zoo : Topology.Zoo.t) =
    let coordinator = Pdes.create () in
    ignore (Topology.build_partitioned coordinator zoo.Topology.Zoo.declare);
    Pdes.lookahead_s coordinator
  in
  Alcotest.(check (float 0.)) "parking lot: 10 ms inter-segment cut" 0.01
    (lookahead (Topology.Zoo.parking_lot ()));
  Alcotest.(check (float 0.)) "wan: smallest long-haul pair delay, 15 ms" 0.015
    (lookahead (Topology.Zoo.wan ()));
  let dumbbell = Topology.Zoo.dumbbell () in
  let serial = Topology.build (Engine.create ()) dumbbell.Topology.Zoo.declare in
  Alcotest.(check (float 0.)) "dumbbell: the bottleneck's delay"
    (Link.delay_s (Topology.link_of serial dumbbell.Topology.Zoo.bottlenecks.(0)))
    (lookahead dumbbell);
  (* The fat-tree pod is a single island (a datacenter pod has no
     useful cut at these delays): no cross-island link, no lookahead. *)
  Alcotest.(check (float 0.)) "fat tree pod is one island" infinity
    (lookahead (Topology.Zoo.fat_tree_pod ()))

(* Two nodes on two islands. *)
let two_islands g =
  let a = Topology.Graph.add_node g ~island:0 () in
  (a, Topology.Graph.add_node g ~island:1 ())

let test_partition_error_paths () =
  Alcotest.check_raises "route over a link from another island"
    (Invalid_argument "Topology.Graph: route at node 0 uses link 0 from another island")
    (fun () ->
      ignore
        (Topology.build_partitioned (Pdes.create ()) (fun g ->
             let a, b = two_islands g in
             let ba =
               Topology.Graph.add_link g ~src:b ~dst:a ~bandwidth_bps:1e6 ~delay_s:0.01
                 ~capacity_pkts:8 ()
             in
             Topology.Graph.add_route g ~at:a ~dst:b ~via:ba)));
  let zero_delay_cut g =
    let a, b = two_islands g in
    ignore
      (Topology.Graph.add_link g ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay_s:0. ~capacity_pkts:8 ())
  in
  Alcotest.check_raises "zero-delay cut"
    (Invalid_argument "Boundary_link.create: delay must be positive (it is the lookahead)")
    (fun () -> ignore (Topology.build_partitioned (Pdes.create ()) zero_delay_cut));
  (* Serially the same link is an ordinary zero-delay link. *)
  ignore (Topology.build (Engine.create ()) zero_delay_cut)

(* One partitioned run of the WAN zoo under persistent Cubic senders on
   every flow path, folded to a fingerprint.  Flow ids and rng draws
   follow flow-path order, so the fingerprint is a pure function of the
   seed — whatever the worker count. *)
let wan_zoo_fingerprint ~jobs =
  let coordinator = Pdes.create () in
  let zoo = Topology.Zoo.wan () in
  let built = Topology.build_partitioned coordinator zoo.Topology.Zoo.declare in
  let senders =
    Phi_experiments.Scenario.persistent_senders built ~rng:(Prng.create ~seed:19)
      zoo.Topology.Zoo.flow_paths
  in
  Pdes.run ~jobs ~window_s:(Pdes.lookahead_s coordinator) ~until:2. coordinator;
  let fnv h v = (h lxor (v land 0xffffffff)) * 0x01000193 land 0xffffffff in
  let checksum =
    Array.fold_left
      (fun acc s ->
        let st = Phi_tcp.Sender.stats s in
        fnv (fnv acc st.Phi_tcp.Flow.segments) st.Phi_tcp.Flow.retransmitted_segments)
      0x811c9dc5 senders
  in
  Printf.sprintf "events=%d checksum=%08x" (Topology.total_events built) checksum

let test_zoo_wan_partitioned_determinism () =
  (* The determinism contract on a zoo graph: the 4-site WAN mesh,
     partitioned one island per site, replays identically at 1 and 2
     worker domains. *)
  let serial = wan_zoo_fingerprint ~jobs:1 in
  let parallel = wan_zoo_fingerprint ~jobs:2 in
  Alcotest.(check string) "jobs 2 replays jobs 1" serial parallel;
  (* A fingerprint of an idle network would also be jobs-invariant;
     make sure the transport actually ran. *)
  Alcotest.(check bool) "the mesh carried traffic" false
    (String.length serial >= 9 && String.sub serial 0 9 = "events=0 ")

(* Cross-island conservation on a loaded partitioned parking lot, armed:
   every drain checks each boundary's identity (packets the egress
   handed off = delivered + in the outbox + drained and propagating)
   and records nothing, and when the run stops mid-flight the identity
   holds on every cut. *)
let test_parking_lot_cuts_conserve_packets () =
  let zoo = Topology.Zoo.parking_lot () in
  let built, violations =
    Phi_sim.Invariant.with_capture (fun () ->
        let coordinator = Pdes.create () in
        let built = Topology.build_partitioned coordinator zoo.Topology.Zoo.declare in
        ignore
          (Phi_experiments.Scenario.persistent_senders built ~rng:(Prng.create ~seed:23)
             zoo.Topology.Zoo.flow_paths);
        Pdes.run ~jobs:1 ~window_s:(Pdes.lookahead_s coordinator) ~until:2. coordinator;
        built)
  in
  Alcotest.(check (list string))
    "no violation recorded" []
    (List.map (fun v -> v.Phi_sim.Invariant.rule) violations);
  let crossed = ref 0 in
  for s = 0 to Topology.Zoo.default_parking_lot.Topology.Zoo.segments - 2 do
    List.iter
      (fun kind ->
        let label = Printf.sprintf "%s:%d" kind s in
        match Topology.boundary_of built (Topology.find_link built ~label) with
        | None -> Alcotest.failf "%s is not a boundary" label
        | Some b ->
          crossed := !crossed + Boundary_link.delivered b;
          Alcotest.(check int)
            (label ^ ": handed off = delivered + in transit")
            (Link.packets_delivered (Boundary_link.egress b))
            (Boundary_link.delivered b + Boundary_link.in_transit b))
      [ "f_cut"; "r_cut" ]
  done;
  Alcotest.(check bool) "the cuts carried traffic" true (!crossed > 0)

let suite =
  [
    Alcotest.test_case "run validation" `Quick test_run_validation;
    Alcotest.test_case "lookahead is the minimum" `Quick test_lookahead_is_minimum;
    QCheck_alcotest.to_alcotest prop_partitioned_replays_serial;
    Alcotest.test_case "one window hands off 20,000 packets" `Quick test_large_window_handoff;
    Alcotest.test_case "boundary create validation" `Quick test_boundary_create_validation;
    Alcotest.test_case "zoo graphs register their cut lookaheads" `Quick test_zoo_cut_lookaheads;
    Alcotest.test_case "partition error paths raise" `Quick test_partition_error_paths;
    Alcotest.test_case "partitioned WAN zoo is jobs-invariant" `Quick
      test_zoo_wan_partitioned_determinism;
    Alcotest.test_case "partitioned parking lot conserves packets on every cut" `Quick
      test_parking_lot_cuts_conserve_packets;
  ]
