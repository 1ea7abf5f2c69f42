(* Tests for phi_net: pooled packets, links, nodes, topology, monitors. *)

module Engine = Phi_sim.Engine
module Packet = Phi_net.Packet
module Link = Phi_net.Link
module Node = Phi_net.Node
module Topology = Phi_net.Topology
module Monitor = Phi_net.Monitor
module Prng = Phi_util.Prng

let data ?(flow = 0) pool ~seq =
  Packet.acquire_data pool ~flow ~src:0 ~dst:1 ~seq ~now:0. ~retransmit:false

(* {2 Packet pool} *)

let test_packet_constructors () =
  let pool = Packet.create_pool () in
  let d = data pool ~seq:7 in
  Alcotest.(check bool) "data is data" true (Packet.is_data pool d);
  Alcotest.(check int) "data size" Packet.mss (Packet.size pool d);
  Alcotest.(check int) "data seq" 7 (Packet.seq pool d);
  let a =
    Packet.acquire_ack pool ~flow:0 ~src:1 ~dst:0 ~next_expected:8 ~has_echo:true
      ~echo_sent_at:1. ~echo_tx_time:1. ~ece:false ~now:2.
  in
  Packet.add_sack pool a ~lo:10 ~hi:12;
  Alcotest.(check bool) "ack is not data" false (Packet.is_data pool a);
  Alcotest.(check int) "ack size" Packet.ack_size (Packet.size pool a);
  Alcotest.(check int) "cumulative seq" 8 (Packet.seq pool a);
  Alcotest.(check int) "sack count" 1 (Packet.sack_count pool a);
  Alcotest.(check int) "sack lo" 10 (Packet.sack_lo pool a 0);
  Alcotest.(check int) "sack hi" 12 (Packet.sack_hi pool a 0)

let test_packet_sack_limit () =
  let pool = Packet.create_pool () in
  let a =
    Packet.acquire_ack pool ~flow:0 ~src:1 ~dst:0 ~next_expected:0 ~has_echo:false
      ~echo_sent_at:0. ~echo_tx_time:0. ~ece:false ~now:0.
  in
  for i = 0 to Packet.max_sack_blocks - 1 do
    Packet.add_sack pool a ~lo:(2 * i) ~hi:((2 * i) + 1)
  done;
  let raised =
    try
      Packet.add_sack pool a ~lo:100 ~hi:101;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "sack limit enforced" true raised

let test_packet_recycling () =
  let pool = Packet.create_pool () in
  let d = data pool ~seq:1 in
  Alcotest.(check int) "one cell in use" 1 (Packet.in_use pool);
  Packet.release pool d;
  Alcotest.(check int) "cell returned" 0 (Packet.in_use pool);
  (* The freed cell is reused: the high-water mark stays at one across
     many acquire/release cycles, and every reincarnation starts from a
     clean slate (fresh seq, no stale SACK blocks). *)
  for i = 0 to 99 do
    let p = data pool ~seq:i in
    Alcotest.(check int) "reinitialized seq" i (Packet.seq pool p);
    Alcotest.(check int) "no stale sack" 0 (Packet.sack_count pool p);
    Packet.release pool p
  done;
  Alcotest.(check int) "high water stays 1" 1 (Packet.high_water pool);
  Alcotest.(check int) "nothing leaked" 0 (Packet.in_use pool)

(* Every accessor of a packet, rendered, to compare a copy with its
   source. *)
let accessors pool h =
  let b = string_of_bool and f = Printf.sprintf "%h" and i = string_of_int in
  [
    ("flow", i (Packet.flow pool h));
    ("src", i (Packet.src pool h));
    ("dst", i (Packet.dst pool h));
    ("seq", i (Packet.seq pool h));
    ("size", i (Packet.size pool h));
    ("is_data", b (Packet.is_data pool h));
    ("sent_at", f (Packet.sent_at pool h));
    ("retransmit", b (Packet.retransmit pool h));
    ("ce", b (Packet.ce pool h));
    ("enqueued_at", f (Packet.enqueued_at pool h));
    ("ack_has_echo", b (Packet.ack_has_echo pool h));
    ("ack_echo_sent_at", f (Packet.ack_echo_sent_at pool h));
    ("ack_echo_tx_time", f (Packet.ack_echo_tx_time pool h));
    ("ack_ece", b (Packet.ack_ece pool h));
    ("sack_count", i (Packet.sack_count pool h));
  ]
  @ List.concat
      (List.init (Packet.sack_count pool h) (fun k ->
           [
             (Printf.sprintf "sack_lo %d" k, i (Packet.sack_lo pool h k));
             (Printf.sprintf "sack_hi %d" k, i (Packet.sack_hi pool h k));
           ]))

(* A packet exported from one pool and imported into another reads the
   same through every accessor.  The exported handle stays the
   caller's to release, and the destination pool counts the import. *)
let test_packet_round_trip_across_pools () =
  let src = Packet.create_pool () and dst = Packet.create_pool () in
  let d = Packet.acquire_data src ~flow:3 ~src:4 ~dst:5 ~seq:41 ~now:1.25 ~retransmit:true in
  Packet.mark_ce src d;
  Packet.set_enqueued_at src d 1.5;
  let a =
    Packet.acquire_ack src ~flow:3 ~src:5 ~dst:4 ~next_expected:42 ~has_echo:true
      ~echo_sent_at:0.75 ~echo_tx_time:0.875 ~ece:true ~now:2.
  in
  List.iter (fun (lo, hi) -> Packet.add_sack src a ~lo ~hi) [ (50, 52); (45, 47); (43, 44) ];
  let ints = Array.make (2 * Packet.cell_ints) 0 in
  let floats = Float.Array.make (2 * Packet.cell_floats) 0. in
  Packet.export src d ints 0 floats 0;
  Packet.export src a ints Packet.cell_ints floats Packet.cell_floats;
  Alcotest.(check int) "export keeps the sources live" 2 (Packet.in_use src);
  (* A packet already live in the destination puts the copies in other
     cells than their sources. *)
  let other = data dst ~seq:0 in
  let d' = Packet.import dst ints 0 floats 0 in
  let a' = Packet.import dst ints Packet.cell_ints floats Packet.cell_floats in
  let same = Alcotest.(check (list (pair string string))) in
  same "data packet" (accessors src d) (accessors dst d');
  same "ack" (accessors src a) (accessors dst a');
  Alcotest.(check bool) "retransmit carried" true (Packet.retransmit dst d');
  Alcotest.(check bool) "ce carried" true (Packet.ce dst d');
  Alcotest.(check bool) "ece carried" true (Packet.ack_ece dst a');
  Alcotest.(check int) "sack blocks carried" 3 (Packet.sack_count dst a');
  Alcotest.(check int) "destination in use" 3 (Packet.in_use dst);
  Alcotest.(check int) "destination high water" 3 (Packet.high_water dst);
  List.iter (Packet.release src) [ d; a ];
  List.iter (Packet.release dst) [ other; d'; a' ];
  Alcotest.(check int) "source drained" 0 (Packet.in_use src);
  Alcotest.(check int) "destination drained" 0 (Packet.in_use dst)

let test_packet_double_release_rejected () =
  if Phi_sim.Invariant.enabled () then
    (* Under PHI_SANITIZE the stale release is recorded, not raised;
       capture it so the leak check stays clean (the armed path is
       covered in test_invariant.ml). *)
    let (), vs =
      Phi_sim.Invariant.with_capture (fun () ->
          let pool = Packet.create_pool () in
          let d = data pool ~seq:0 in
          Packet.release pool d;
          Packet.release pool d)
    in
    Alcotest.(check (list string))
      "double release recorded" [ "packet-double-release" ]
      (List.map (fun v -> v.Phi_sim.Invariant.rule) vs)
  else
    let pool = Packet.create_pool () in
    let d = data pool ~seq:0 in
    Packet.release pool d;
    let raised = try Packet.release pool d; false with Invalid_argument _ -> true in
    Alcotest.(check bool) "double release rejected" true raised

(* {2 Link} *)

let make_link ?(bandwidth_bps = 8e6) ?(delay_s = 0.01) ?(capacity_pkts = 4) engine pool =
  Link.create engine pool ~bandwidth_bps ~delay_s ~capacity_pkts

let test_link_delivery_timing () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link engine pool in
  let arrived = ref (-1.) in
  Link.set_receiver link (fun p ->
      arrived := Engine.now engine;
      Packet.release pool p);
  Link.send link (data pool ~seq:0);
  Engine.run engine;
  (* 1500 B at 8 Mb/s = 1.5 ms serialization, + 10 ms propagation. *)
  Alcotest.(check (float 1e-9)) "tx + prop" 0.0115 !arrived;
  Alcotest.(check int) "delivered count" 1 (Link.packets_delivered link);
  Alcotest.(check int) "bytes" Packet.mss (Link.bytes_delivered link);
  Alcotest.(check int) "no cell leaked" 0 (Packet.in_use pool)

let test_link_fifo_order () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link engine pool in
  let order = ref [] in
  Link.set_receiver link (fun p ->
      order := Packet.seq pool p :: !order;
      Packet.release pool p);
  for seq = 0 to 3 do
    Link.send link (data pool ~seq)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3 ] (List.rev !order)

let test_link_drop_tail () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link ~capacity_pkts:2 engine pool in
  Link.set_receiver link (fun p -> Packet.release pool p);
  for seq = 0 to 4 do
    Link.send link (data pool ~seq)
  done;
  (* Queue capacity 2: packets 0,1 accepted; 2..4 dropped (no service
     between sends since no events ran). *)
  Alcotest.(check int) "drops" 3 (Link.drops link);
  Alcotest.(check int) "offered" 5 (Link.packets_offered link);
  (* A dropped packet goes straight back to the free list. *)
  Alcotest.(check int) "drops released" 2 (Packet.in_use pool);
  Engine.run engine;
  Alcotest.(check int) "delivered rest" 2 (Link.packets_delivered link);
  Alcotest.(check int) "all cells home" 0 (Packet.in_use pool)

let test_link_busy_time_utilization () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link ~bandwidth_bps:(float_of_int (Packet.mss * 8)) ~delay_s:0. engine pool in
  Link.set_receiver link (fun p -> Packet.release pool p);
  (* 1 packet/s serialization: 2 packets = 2 s busy. *)
  Link.send link (data pool ~seq:0);
  Link.send link (data pool ~seq:1);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "busy time" 2. (Link.busy_time link)

let test_link_queue_wait () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link ~bandwidth_bps:(float_of_int (Packet.mss * 8)) ~delay_s:0. engine pool in
  Link.set_receiver link (fun p -> Packet.release pool p);
  Link.send link (data pool ~seq:0);
  Link.send link (data pool ~seq:1);
  Engine.run engine;
  (* Second packet waited exactly one serialization time. *)
  Alcotest.(check (float 1e-9)) "wait" 1. (Link.total_queue_wait link)

let test_link_fault_injection () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link ~capacity_pkts:10_000 engine pool in
  Link.set_receiver link (fun p -> Packet.release pool p);
  Link.set_fault_injection link ~rng:(Prng.create ~seed:1) ~drop_probability:0.5;
  for seq = 0 to 999 do
    Link.send link (data pool ~seq)
  done;
  let drops = Link.drops link in
  Alcotest.(check bool) "about half dropped" true (drops > 400 && drops < 600);
  Engine.run engine;
  Alcotest.(check int) "every cell recycled" 0 (Packet.in_use pool)

(* {2 Runtime dynamics (link flaps, rate changes, delay jitter)} *)

(* 1 packet/s serialization so service boundaries land on whole seconds. *)
let pkt_per_s = float_of_int (Packet.mss * 8)

let test_link_flap_freezes_queue () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link ~bandwidth_bps:pkt_per_s ~delay_s:0. ~capacity_pkts:10 engine pool in
  let arrivals = ref [] in
  Link.set_receiver link (fun p ->
      arrivals := (Packet.seq pool p, Engine.now engine) :: !arrivals;
      Packet.release pool p);
  for seq = 0 to 2 do
    Link.send link (data pool ~seq)
  done;
  (* Down mid-service of packet 0: it completes (t=1) and delivers;
     packets 1-2 freeze.  An arrival while down is dropped.  Up at t=5:
     the frozen queue resumes, delivering at t=6 and t=7. *)
  ignore (Engine.schedule_at engine ~time:0.5 (fun () -> Link.set_down link));
  ignore (Engine.schedule_at engine ~time:1.5 (fun () -> Link.send link (data pool ~seq:3)));
  ignore (Engine.schedule_at engine ~time:5.0 (fun () -> Link.set_up link));
  Engine.run engine;
  Alcotest.(check (list (pair int (float 1e-9))))
    "in-service completes, queue freezes then resumes"
    [ (0, 1.0); (1, 6.0); (2, 7.0) ]
    (List.rev !arrivals);
  Alcotest.(check int) "arrival while down dropped" 1 (Link.drops link);
  Alcotest.(check int) "conservation" (Link.packets_offered link)
    (Link.packets_delivered link + Link.drops link + Link.queue_length link);
  Alcotest.(check bool) "back up" true (Link.is_up link);
  Alcotest.(check int) "no cell leaked" 0 (Packet.in_use pool)

let test_link_set_up_idempotent () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link ~bandwidth_bps:pkt_per_s ~delay_s:0. engine pool in
  Link.set_receiver link (fun p -> Packet.release pool p);
  Link.set_up link;
  (* Calling set_up on an already-up link must not double-start service. *)
  Link.send link (data pool ~seq:0);
  Link.set_up link;
  Engine.run engine;
  Alcotest.(check int) "delivered once" 1 (Link.packets_delivered link)

let test_link_rate_change_mid_transmission () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link ~bandwidth_bps:pkt_per_s ~delay_s:0. engine pool in
  let arrivals = ref [] in
  Link.set_receiver link (fun p ->
      arrivals := Engine.now engine :: !arrivals;
      Packet.release pool p);
  Link.send link (data pool ~seq:0);
  Link.send link (data pool ~seq:1);
  (* Double the rate while packet 0 is in service: it still finishes at
     the old rate (t=1); packet 1 serializes at the new rate (0.5 s). *)
  ignore (Engine.schedule_at engine ~time:0.5 (fun () -> Link.set_rate_bps link (2. *. pkt_per_s)));
  Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "old rate finishes, new rate follows" [ 1.0; 1.5 ]
    (List.rev !arrivals)

let test_link_delay_jitter_never_reorders () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  (* Fast serialization (1 ms) with long propagation (100 ms). *)
  let link =
    make_link ~bandwidth_bps:(1000. *. pkt_per_s) ~delay_s:0.1 ~capacity_pkts:10 engine pool
  in
  let arrivals = ref [] in
  Link.set_receiver link (fun p ->
      arrivals := (Packet.seq pool p, Engine.now engine) :: !arrivals;
      Packet.release pool p);
  Link.send link (data pool ~seq:0);
  Link.send link (data pool ~seq:1);
  (* Shrink the delay to zero between the two serializations: packet 1
     would land at t=0.002, overtaking packet 0 (due t=0.101).  The
     clamp pins it to packet 0's delivery instant instead. *)
  ignore (Engine.schedule_at engine ~time:0.0015 (fun () -> Link.set_delay_s link 0.));
  Engine.run engine;
  Alcotest.(check (list (pair int (float 1e-9))))
    "fifo preserved under shrinking delay"
    [ (0, 0.101); (1, 0.101) ]
    (List.rev !arrivals)

let test_link_delay_increase_takes_effect () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link ~bandwidth_bps:(1000. *. pkt_per_s) ~delay_s:0.01 engine pool in
  let arrivals = ref [] in
  Link.set_receiver link (fun p ->
      arrivals := Engine.now engine :: !arrivals;
      Packet.release pool p);
  Link.send link (data pool ~seq:0);
  ignore (Engine.schedule_at engine ~time:0.0015 (fun () -> Link.set_delay_s link 0.05));
  ignore (Engine.schedule_at engine ~time:0.002 (fun () -> Link.send link (data pool ~seq:1)));
  Engine.run engine;
  (* First packet at the old delay, second at the new one. *)
  Alcotest.(check (list (float 1e-9))) "new delay applies to later packets" [ 0.011; 0.053 ]
    (List.rev !arrivals)

let test_link_dynamics_validation () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link engine pool in
  let raised f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero rate" true (raised (fun () -> Link.set_rate_bps link 0.));
  Alcotest.(check bool) "nan rate" true (raised (fun () -> Link.set_rate_bps link Float.nan));
  Alcotest.(check bool) "negative delay" true (raised (fun () -> Link.set_delay_s link (-1.)));
  Alcotest.(check bool) "nan delay" true (raised (fun () -> Link.set_delay_s link Float.nan))

let test_link_stats_window () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link ~bandwidth_bps:pkt_per_s ~delay_s:0. ~capacity_pkts:2 engine pool in
  Link.set_receiver link (fun p -> Packet.release pool p);
  Link.send link (data pool ~seq:0);
  Link.send link (data pool ~seq:1);
  Engine.run engine;
  let w = Link.window_open link in
  Alcotest.(check int) "fresh window sees nothing" 0 (Link.window_delivered link w);
  Alcotest.(check (float 0.)) "fresh window idle" 0. (Link.window_busy_s link w);
  (* Second half: 2 accepted (one waits a full service time), 1 dropped. *)
  for seq = 2 to 4 do
    Link.send link (data pool ~seq)
  done;
  Engine.run engine;
  Alcotest.(check int) "delta delivered" 2 (Link.window_delivered link w);
  Alcotest.(check int) "delta offered" 3 (Link.window_offered link w);
  Alcotest.(check int) "delta drops" 1 (Link.window_drops link w);
  Alcotest.(check int) "delta bytes" (2 * Packet.mss) (Link.window_bytes_delivered link w);
  Alcotest.(check (float 1e-9)) "delta busy" 2. (Link.window_busy_s link w);
  Alcotest.(check (float 1e-9)) "mean queue wait" 0.5 (Link.window_queue_delay_s link w);
  Alcotest.(check (float 1e-9)) "loss rate" (1. /. 3.) (Link.window_loss_rate link w);
  Alcotest.(check (float 1e-9))
    "throughput over 2s"
    (float_of_int (2 * Packet.mss * 8) /. 2.)
    (Link.window_throughput_bps link w ~elapsed_s:2.);
  Alcotest.(check (float 1e-9)) "utilization" 1. (Link.window_utilization link w ~elapsed_s:2.)

let test_link_validation () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let raised f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bw" true
    (raised (fun () ->
         ignore (Link.create engine pool ~bandwidth_bps:0. ~delay_s:0. ~capacity_pkts:1)));
  Alcotest.(check bool) "capacity" true
    (raised (fun () ->
         ignore (Link.create engine pool ~bandwidth_bps:1. ~delay_s:0. ~capacity_pkts:0)))

(* [bandwidth_bps <= 0.] and [delay_s < 0.] are both false for NaN, and
   an infinite bandwidth is positive: one probe per case, as (name,
   bandwidth, delay, the error's field and reason). *)
let non_finite_link_params =
  [
    ("nan bandwidth", nan, 0., "bandwidth_bps must be finite and positive");
    ("infinite bandwidth", infinity, 0., "bandwidth_bps must be finite and positive");
    ("nan delay", 1e6, nan, "delay_s must be finite and non-negative");
  ]

let link_create_rejects (name, bandwidth_bps, delay_s, why) =
  ( "link create rejects " ^ name,
    `Quick,
    fun () ->
      Alcotest.check_raises name (Invalid_argument ("Link.create: " ^ why)) (fun () ->
          ignore
            (Link.create (Engine.create ()) (Packet.create_pool ()) ~bandwidth_bps ~delay_s
               ~capacity_pkts:1)) )

(* {2 RED} *)

let test_red_no_drops_below_min_threshold () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link ~capacity_pkts:100 engine pool in
  Link.set_receiver link (fun p -> Packet.release pool p);
  Link.set_discipline link ~rng:(Prng.create ~seed:1)
    (Link.Red
       {
         Link.min_threshold = 50;
         max_threshold = 90;
         max_probability = 0.1;
         weight = 0.5;
         mark_ecn = false;
       });
  for seq = 0 to 9 do
    Link.send link (data pool ~seq)
  done;
  Alcotest.(check int) "no early drops" 0 (Link.drops link)

let test_red_drops_above_max_threshold () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link ~capacity_pkts:1000 engine pool in
  Link.set_receiver link (fun p -> Packet.release pool p);
  (* weight 1.0: the average tracks the instantaneous queue exactly. *)
  Link.set_discipline link ~rng:(Prng.create ~seed:2)
    (Link.Red
       {
         Link.min_threshold = 5;
         max_threshold = 10;
         max_probability = 0.1;
         weight = 1.0;
         mark_ecn = false;
       });
  for seq = 0 to 99 do
    Link.send link (data pool ~seq)
  done;
  (* Once the queue average passes 10, every arrival is dropped. *)
  Alcotest.(check bool) "forced drops" true (Link.drops link >= 85);
  Alcotest.(check bool) "queue capped near max threshold" true (Link.queue_length link <= 12)

let test_red_probabilistic_band () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link =
    (* Slow link so the queue sits in the band while we offer arrivals. *)
    Link.create engine pool ~bandwidth_bps:1e3 ~delay_s:0. ~capacity_pkts:10_000
  in
  Link.set_receiver link (fun p -> Packet.release pool p);
  Link.set_discipline link ~rng:(Prng.create ~seed:3)
    (Link.Red
       {
         Link.min_threshold = 5;
         max_threshold = 10_000;
         max_probability = 0.2;
         weight = 1.0;
         mark_ecn = false;
       });
  for seq = 0 to 999 do
    Link.send link (data pool ~seq)
  done;
  let drops = Link.drops link in
  (* In the band the drop probability ramps towards 0.2 but stays tiny
     near min_threshold: expect some drops, far from all. *)
  Alcotest.(check bool) "some early drops" true (drops > 0);
  Alcotest.(check bool) "not everything dropped" true (drops < 500)

let test_red_validation () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = make_link engine pool in
  let raised =
    try
      Link.set_discipline link ~rng:(Prng.create ~seed:4)
        (Link.Red
           {
             Link.min_threshold = 10;
             max_threshold = 5;
             max_probability = 0.1;
             weight = 0.5;
             mark_ecn = false;
           });
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad thresholds rejected" true raised

let test_red_keeps_cubic_queue_short_end_to_end () =
  let run ~red =
    let engine = Engine.create () in
    let d = Topology.dumbbell engine { Topology.paper_spec with Topology.n = 1 } in
    if red then
      Link.set_discipline d.Topology.bottleneck ~rng:(Prng.create ~seed:5)
        (Link.Red
           (Link.default_red ~capacity_pkts:(Link.capacity_pkts d.Topology.bottleneck) ()));
    let _recv =
      Phi_tcp.Receiver.create engine ~node:d.Topology.receivers.(0) ~flow:0 ~peer:0
    in
    let sender =
      Phi_tcp.Sender.create engine
        ~node:d.Topology.senders.(0)
        ~flow:0
        ~dst:(Topology.receiver_id d 0)
        ~cc:(Phi_tcp.Cubic.make Phi_tcp.Cubic.default_params)
        ~total_segments:Phi_tcp.Sender.persistent_total ()
    in
    Phi_tcp.Sender.start sender;
    Engine.run ~until:30. engine;
    let bneck = d.Topology.bottleneck in
    Link.total_queue_wait bneck /. float_of_int (Stdlib.max 1 (Link.packets_delivered bneck))
  in
  let droptail = run ~red:false and red = run ~red:true in
  Alcotest.(check bool) "red holds a much shorter queue" true (red < droptail /. 3.)

(* {2 Node} *)

let test_node_local_delivery () =
  let pool = Packet.create_pool () in
  let node = Node.create pool ~id:1 in
  let got = ref [] in
  Node.bind_flow node ~flow:0 (fun p -> got := Packet.seq pool p :: !got);
  Node.receive node (data pool ~seq:5);
  Alcotest.(check (list int)) "delivered locally" [ 5 ] !got;
  (* The node releases a locally delivered packet once the handler
     returns. *)
  Alcotest.(check int) "cell recycled after handler" 0 (Packet.in_use pool);
  Node.unbind_flow node ~flow:0;
  Node.receive node (data pool ~seq:6);
  Alcotest.(check int) "unclaimed counted" 1 (Node.unclaimed_deliveries node);
  Alcotest.(check int) "unclaimed still recycled" 0 (Packet.in_use pool)

let test_node_forwarding () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let a = Node.create pool ~id:0 in
  let b = Node.create pool ~id:1 in
  let link = make_link engine pool in
  Link.set_receiver link (Node.receive b);
  Node.add_route a ~dst:1 link;
  let got = ref 0 in
  Node.bind_flow b ~flow:0 (fun _ -> incr got);
  Node.receive a (data pool ~seq:0);
  Engine.run engine;
  Alcotest.(check int) "forwarded" 1 !got

let test_node_default_route () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let a = Node.create pool ~id:0 in
  let b = Node.create pool ~id:9 in
  let link = make_link engine pool in
  Link.set_receiver link (Node.receive b);
  Node.set_default_route a link;
  let got = ref 0 in
  Node.bind_flow b ~flow:0 (fun _ -> incr got);
  Node.receive a
    (Packet.acquire_data pool ~flow:0 ~src:0 ~dst:9 ~seq:0 ~now:0. ~retransmit:false);
  Engine.run engine;
  Alcotest.(check int) "default routed" 1 !got

let test_node_no_route_fails () =
  let pool = Packet.create_pool () in
  let a = Node.create pool ~id:0 in
  let raised =
    try
      Node.receive a (data pool ~seq:0);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "no route raises" true raised;
  (* Even the failure path returns the cell. *)
  Alcotest.(check int) "unroutable packet released" 0 (Packet.in_use pool)

(* One rejection per entry point: ids and flows index arrays, and a
   negative flow would otherwise mask onto a live slot. *)
let node_rejects_negative =
  let pool = Packet.create_pool () in
  let node () = Node.create pool ~id:0 in
  let link () = make_link (Engine.create ()) pool in
  [
    ("create", "id", fun () -> ignore (Node.create pool ~id:(-1)));
    ("add_route", "dst", fun () -> Node.add_route (node ()) ~dst:(-1) (link ()));
    ("bind_flow", "flow", fun () -> Node.bind_flow (node ()) ~flow:(-1) ignore);
    ("unbind_flow", "flow", fun () -> Node.unbind_flow (node ()) ~flow:(-1));
  ]
  |> List.map (fun (fn, field, call) ->
         ( Printf.sprintf "node %s rejects a negative %s" fn field,
           `Quick,
           fun () ->
             Alcotest.check_raises fn
               (Invalid_argument (Printf.sprintf "Node.%s: %s must be >= 0 (got -1)" fn field))
               call ))

(* 5, 13 and 4101 share their low three bits, so the slot table must
   double until each has a slot of its own (4101 = 4096 + 5). *)
let colliding_flows = [ 5; 13; 4101 ]

let bind_counters node =
  List.map
    (fun flow ->
      let got = ref 0 in
      Node.bind_flow node ~flow (fun _ -> incr got);
      (flow, got))
    colliding_flows

let test_node_colliding_flows_demux () =
  let pool = Packet.create_pool () in
  let node = Node.create pool ~id:1 in
  let counters = bind_counters node in
  List.iteri
    (fun i flow ->
      for _ = 0 to i do
        Node.receive node (data pool ~flow ~seq:0)
      done)
    colliding_flows;
  Alcotest.(check (list (pair int int)))
    "each flow reaches its own handler"
    [ (5, 1); (13, 2); (4101, 3) ]
    (List.map (fun (flow, got) -> (flow, !got)) counters);
  Alcotest.(check int) "nothing unclaimed" 0 (Node.unclaimed_deliveries node)

let test_node_unbind_keeps_other_flows () =
  let pool = Packet.create_pool () in
  let node = Node.create pool ~id:1 in
  let counters = bind_counters node in
  Node.unbind_flow node ~flow:13;
  List.iter (fun flow -> Node.receive node (data pool ~flow ~seq:0)) colliding_flows;
  Alcotest.(check int) "13 counts as unclaimed" 1 (Node.unclaimed_deliveries node);
  Alcotest.(check (list (pair int int)))
    "5 and 4101 still deliver"
    [ (5, 1); (13, 0); (4101, 1) ]
    (List.map (fun (flow, got) -> (flow, !got)) counters);
  Alcotest.(check int) "every cell released" 0 (Packet.in_use pool)

let test_node_rebind_replaces_handler () =
  let pool = Packet.create_pool () in
  let node = Node.create pool ~id:1 in
  let first = ref 0 and second = ref 0 in
  Node.bind_flow node ~flow:7 (fun _ -> incr first);
  Node.bind_flow node ~flow:7 (fun _ -> incr second);
  Node.receive node (data pool ~flow:7 ~seq:0);
  Alcotest.(check (pair int int)) "only the new handler runs" (0, 1) (!first, !second)

let test_node_route_table_grows () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let a = Node.create pool ~id:0 in
  let hops = ref [] in
  let link name =
    let l = make_link engine pool in
    Link.set_receiver l (fun p ->
        hops := (name, Packet.dst pool p) :: !hops;
        Packet.release pool p);
    l
  in
  Node.add_route a ~dst:2 (link "to 2");
  Node.add_route a ~dst:1000 (link "to 1000");
  Node.set_default_route a (link "default");
  List.iter
    (fun dst ->
      Node.receive a (Packet.acquire_data pool ~flow:0 ~src:0 ~dst ~seq:0 ~now:0. ~retransmit:false))
    [ 1000; 2; 3; 5000 ];
  Engine.run engine;
  Alcotest.(check (list (pair string int)))
    "the new highest id is routed, misses take the default"
    [ ("to 1000", 1000); ("to 2", 2); ("default", 3); ("default", 5000) ]
    (List.rev !hops)

(* {2 Topology} *)

let test_dumbbell_dimensions () =
  let spec = Topology.paper_spec in
  Alcotest.(check int) "bdp packets" 188 (Topology.bdp_packets spec);
  Alcotest.(check int) "buffer = 5 bdp" 940 (Topology.buffer_packets spec);
  let engine = Engine.create () in
  let d = Topology.dumbbell engine spec in
  Alcotest.(check int) "senders" 8 (Array.length d.Topology.senders);
  Alcotest.(check int) "receivers" 8 (Array.length d.Topology.receivers);
  Alcotest.(check int) "bottleneck capacity" 940 (Link.capacity_pkts d.Topology.bottleneck)

let test_dumbbell_end_to_end_rtt () =
  let engine = Engine.create () in
  let d = Topology.dumbbell engine Topology.paper_spec in
  let pool = d.Topology.pool in
  let rtt = ref 0. in
  (* Send one data packet from sender 0 to receiver 0 and bounce an ACK
     back; measure the echo time. *)
  let flow = 0 in
  Node.bind_flow d.Topology.receivers.(0) ~flow (fun pkt ->
      let sent_at = Packet.sent_at pool pkt in
      let next_expected = Packet.seq pool pkt + 1 in
      let ack =
        Packet.acquire_ack pool ~flow
          ~src:(Topology.receiver_id d 0)
          ~dst:0 ~next_expected ~has_echo:true ~echo_sent_at:sent_at ~echo_tx_time:sent_at
          ~ece:false ~now:(Engine.now engine)
      in
      Node.receive d.Topology.receivers.(0) ack);
  Node.bind_flow d.Topology.senders.(0) ~flow (fun _ -> rtt := Engine.now engine);
  Node.receive
    d.Topology.senders.(0)
    (Packet.acquire_data pool ~flow ~src:0
       ~dst:(Topology.receiver_id d 0)
       ~seq:0 ~now:0. ~retransmit:false);
  Engine.run engine;
  (* RTT = propagation (150 ms) + serialization of data and ack. *)
  Alcotest.(check bool) "close to 150 ms" true (!rtt > 0.150 && !rtt < 0.153);
  Alcotest.(check int) "round trip leaked nothing" 0 (Packet.in_use pool)

let test_dumbbell_rejects_tiny_rtt () =
  let engine = Engine.create () in
  let raised =
    try
      ignore
        (Topology.dumbbell engine { Topology.paper_spec with Topology.rtt_s = 0.001 });
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "rtt too small rejected" true raised

(* A NaN RTT slipped past "rtt too small" and gave the bottleneck a NaN
   delay; a NaN buffer factor silently built a 1-packet buffer. *)
let test_dumbbell_rejects_nan_rtt () =
  Alcotest.check_raises "nan rtt"
    (Invalid_argument "Topology.dumbbell: rtt_s must be finite and positive") (fun () ->
      ignore
        (Topology.dumbbell (Engine.create ()) { Topology.paper_spec with Topology.rtt_s = nan }))

let test_dumbbell_rejects_nan_buffer_factor () =
  Alcotest.check_raises "nan buffer factor"
    (Invalid_argument "Topology.dumbbell: buffer_bdp_factor must be finite and positive")
    (fun () ->
      ignore
        (Topology.dumbbell (Engine.create ())
           { Topology.paper_spec with Topology.buffer_bdp_factor = nan }))

(* {2 The topology builder} *)

module Zoo = Topology.Zoo

let graph_add_link_rejects (name, bandwidth_bps, delay_s, why) =
  ( "graph add_link rejects " ^ name,
    `Quick,
    fun () ->
      Alcotest.check_raises name (Invalid_argument ("Topology.Graph.add_link: " ^ why)) (fun () ->
          ignore
            (Topology.build (Engine.create ()) (fun g ->
                 let a = Topology.Graph.add_node g () in
                 let b = Topology.Graph.add_node g () in
                 ignore
                   (Topology.Graph.add_link g ~src:a ~dst:b ~bandwidth_bps ~delay_s
                      ~capacity_pkts:1 ())))) )

(* A zoo entry drawn over its sizes, with its node count and the label
   of each bottleneck as its declaration gives them. *)
let gen_zoo =
  QCheck.Gen.(
    oneof
      [
        map
          (fun n ->
            ( Zoo.dumbbell ~spec:{ Topology.paper_spec with Topology.n } (),
              (2 * n) + 2,
              [| "bottleneck" |] ))
          (int_range 1 6);
        map
          (fun (segments, local_pairs, long_flows) ->
            ( Zoo.parking_lot
                ~spec:{ Zoo.default_parking_lot with Zoo.segments; local_pairs; long_flows }
                (),
              (2 * segments) + (2 * segments * local_pairs) + (2 * long_flows),
              Array.init segments (Printf.sprintf "hop_fwd:%d") ))
          (triple (int_range 1 4) (int_range 0 3) (int_range 0 3));
        return (Zoo.fat_tree_pod (), 8, [| "up:0:0"; "up:0:1"; "up:1:0"; "up:1:1" |]);
        return
          ( Zoo.wan (),
            16,
            Array.of_list
              (List.concat_map
                 (fun i ->
                   List.filter_map
                     (fun j -> if j <> i then Some (Printf.sprintf "wan:%d:%d" i j) else None)
                     [ 0; 1; 2; 3 ])
                 [ 0; 1; 2; 3 ]) );
      ])

(* Realized serially or partitioned, a zoo entry's ids all resolve:
   node ids are declaration indices, bottleneck indices and flow-path
   and incast endpoints name realized links and nodes, and each
   labelled bottleneck is found at the index its declaration returned. *)
let prop_zoo_ids_resolve =
  QCheck.Test.make ~name:"zoo ids resolve in both realizations" ~count:30
    (QCheck.make
       ~print:(fun ((z : Zoo.t), n, _) -> Printf.sprintf "%s, %d nodes" z.Zoo.name n)
       gen_zoo)
    (fun ((zoo : Zoo.t), n_nodes, labels) ->
      List.for_all
        (fun b ->
          let node_ok id = Node.id (Topology.node b ~id) = id in
          List.for_all node_ok (List.init n_nodes Fun.id)
          && (match Topology.node b ~id:n_nodes with
             | _ -> false
             | exception Invalid_argument _ -> true)
          && Array.for_all
               (fun (fp : Zoo.flow_path) -> node_ok fp.Zoo.src && node_ok fp.Zoo.dst)
               zoo.Zoo.flow_paths
          && Array.for_all node_ok zoo.Zoo.incast_sources
          && (zoo.Zoo.incast_sink < 0 || node_ok zoo.Zoo.incast_sink)
          && Array.for_all2
               (fun ix label ->
                 Topology.find_link b ~label = ix
                 && Float.equal
                      (Link.bandwidth_bps (Topology.link_of b ix))
                      zoo.Zoo.bottleneck_bw_bps)
               zoo.Zoo.bottlenecks labels)
        [
          Topology.build (Engine.create ()) zoo.Zoo.declare;
          Topology.build_partitioned (Phi_sim.Pdes.create ()) zoo.Zoo.declare;
        ])

(* The WAN's exported id helpers agree with its declaration: flow [f]
   runs between the hosts of its round-robin site pair. *)
let test_wan_id_helpers () =
  let zoo = Zoo.wan () in
  let pairs =
    [| (0, 1); (0, 2); (0, 3); (1, 0); (1, 2); (1, 3); (2, 0); (2, 1); (2, 3); (3, 0); (3, 1); (3, 2) |]
  in
  Array.iteri
    (fun f (fp : Zoo.flow_path) ->
      let i, j = pairs.(f mod 12) and slot = f / 12 in
      Alcotest.(check (pair int int))
        (Printf.sprintf "flow %d" f)
        (Zoo.wan_host_id ~site:i ~slot, Zoo.wan_host_id ~site:j ~slot)
        (fp.Zoo.src, fp.Zoo.dst))
    zoo.Zoo.flow_paths;
  Alcotest.(check (list int)) "routers then hosts cover every node" (List.init 16 Fun.id)
    (List.sort Int.compare
       (List.init 4 Zoo.wan_site_router_id
       @ List.concat_map
           (fun site -> List.init 3 (fun slot -> Zoo.wan_host_id ~site ~slot))
           [ 0; 1; 2; 3 ]))

let test_find_link_rejects_empty_label () =
  let b = Topology.build (Engine.create ()) (Zoo.dumbbell ()).Zoo.declare in
  Alcotest.check_raises "empty label"
    (Invalid_argument "Topology.find_link: no link labeled \"\"") (fun () ->
      ignore (Topology.find_link b ~label:""))

(* {2 Parking lot (multi-bottleneck chain)} *)

(* A lot of [Array.length hop_bw] segments realized serially, hop [s]
   forwarding at [hop_bw.(s)].  One long flow crosses every hop, and
   segment [s]'s local pair loads hop [s] alone for each [s] in
   [cross].  Returns hop [s]'s forward link and the long flow's goodput
   over 30 s. *)
let run_long_flow ?(cross = []) ~hop_bw () =
  let engine = Engine.create () in
  let spec =
    {
      Zoo.default_parking_lot with
      Zoo.segments = Array.length hop_bw;
      local_pairs = 1;
      long_flows = 1;
      hop_delay_s = 0.020;
      cut_bw_bps = 1e9;
      cut_delay_s = 0.001;
      pl_access_delay_s = 0.001;
      buffer_pkts = 200;
    }
  in
  let zoo = Zoo.parking_lot ~spec () in
  let built = Topology.build engine zoo.Zoo.declare in
  let hop s =
    Topology.link_of built (Topology.find_link built ~label:(Printf.sprintf "hop_fwd:%d" s))
  in
  Array.iteri (fun s bw -> Link.set_rate_bps (hop s) bw) hop_bw;
  let start ~flow (fp : Zoo.flow_path) =
    let src = fp.Zoo.src and dst = fp.Zoo.dst in
    ignore (Phi_tcp.Receiver.create engine ~node:(Topology.node built ~id:dst) ~flow ~peer:src);
    let sender =
      Phi_tcp.Sender.create engine ~node:(Topology.node built ~id:src) ~flow ~dst
        ~cc:
          (Phi_tcp.Cubic.make
             (Phi_tcp.Cubic.with_knobs ~initial_ssthresh:64. Phi_tcp.Cubic.default_params))
        ~total_segments:Phi_tcp.Sender.persistent_total ()
    in
    Phi_tcp.Sender.start sender;
    sender
  in
  (* One local pair per segment, segment-major, then the long flow. *)
  let long = start ~flow:0 zoo.Zoo.flow_paths.(spec.Zoo.segments) in
  List.iter (fun s -> ignore (start ~flow:(1000 + s) zoo.Zoo.flow_paths.(s))) cross;
  Engine.run ~until:30. engine;
  (hop, float_of_int (Phi_tcp.Sender.acked_segments long * Packet.mss * 8) /. 30.)

let test_lot_long_flow_bounded_by_slowest_hop () =
  (* Three hops at 20 / 6 / 20 Mb/s: the long flow caps at ~6 Mb/s. *)
  let _, thr = run_long_flow ~hop_bw:[| 20e6; 6e6; 20e6 |] () in
  Alcotest.(check bool) "bounded by slowest hop" true (thr <= 6e6 *. 1.02);
  Alcotest.(check bool) "but close to it" true (thr > 4e6)

let test_lot_cross_traffic_squeezes_long_flow () =
  let _, alone = run_long_flow ~hop_bw:[| 10e6; 10e6 |] () in
  let _, contended = run_long_flow ~cross:[ 0 ] ~hop_bw:[| 10e6; 10e6 |] () in
  Alcotest.(check bool) "alone saturates" true (alone > 8e6);
  Alcotest.(check bool) "cross traffic halves the share" true
    (contended < 0.75 *. alone && contended > 0.2 *. alone)

let test_lot_hops_load_independently () =
  (* Cross traffic only on hop 0: hop 0 busy, hop 1 carries only the long
     flow. *)
  let hop, _ = run_long_flow ~cross:[ 0 ] ~hop_bw:[| 10e6; 10e6 |] () in
  let util s = Link.busy_time (hop s) /. 30. in
  Alcotest.(check bool) "hop 0 saturated" true (util 0 > 0.9);
  Alcotest.(check bool) "hop 1 partly idle" true (util 1 < 0.8)

let test_lot_validation () =
  let raised spec =
    try
      ignore (Zoo.parking_lot ~spec ());
      false
    with Invalid_argument _ -> true
  in
  let lot = Zoo.default_parking_lot in
  Alcotest.(check bool) "zero segments" true (raised { lot with Zoo.segments = 0 });
  Alcotest.(check bool) "negative local pairs" true (raised { lot with Zoo.local_pairs = -1 });
  Alcotest.(check bool) "negative long flows" true (raised { lot with Zoo.long_flows = -1 })

(* {2 Monitor} *)

let test_monitor_utilization_bins () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link =
    Link.create engine pool
      ~bandwidth_bps:(float_of_int (Packet.mss * 8) *. 10.)
      ~delay_s:0. ~capacity_pkts:100
  in
  Link.set_receiver link (fun p -> Packet.release pool p);
  let monitor = Monitor.create engine link ~interval_s:1.0 in
  (* 5 packets at 10 pkt/s = 0.5 s busy in the first second. *)
  for seq = 0 to 4 do
    Link.send link (data pool ~seq)
  done;
  Alcotest.(check (float 0.)) "no bin closed yet" 0. (Monitor.current_utilization monitor);
  Engine.run ~until:1.5 engine;
  Alcotest.(check (float 1e-6)) "first bin ~50%" 0.5 (Monitor.current_utilization monitor);
  Engine.run ~until:2.5 engine;
  Alcotest.(check (float 1e-6)) "second bin idle" 0. (Monitor.current_utilization monitor)

(* [Topology.dumbbell] realizes the paper dumbbell in one pass; the
   description that pass hands back is the one [Zoo.dumbbell] learns
   from its shape replay. *)
let test_dumbbell_one_pass_description () =
  let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  let show (z : Zoo.t) =
    Printf.sprintf "%s paths=[%s] bottlenecks=[%s] sink=%d sources=[%s]" z.Zoo.name
      (String.concat ";"
         (Array.to_list
            (Array.map
               (fun (fp : Zoo.flow_path) ->
                 Printf.sprintf "%d>%d@%h" fp.Zoo.src fp.Zoo.dst fp.Zoo.rtt_s)
               z.Zoo.flow_paths)))
      (ints z.Zoo.bottlenecks) z.Zoo.incast_sink (ints z.Zoo.incast_sources)
  in
  List.iter
    (fun n ->
      let spec = { Topology.paper_spec with Topology.n } in
      Alcotest.(check string) (Printf.sprintf "n = %d" n)
        (show (Zoo.dumbbell ~spec ()))
        (show (Topology.dumbbell (Engine.create ()) spec).Topology.zoo))
    [ 1; 8; 16; 100 ]

(* Two links that share every delay lane, one of which changes its delay
   and rate mid-run: a delay decrease with packets propagating (the
   clamped, own-lane path), then a rate and delay increase and a rate
   decrease (new shared lanes).  Each delivery is pinned in [%h] as the
   single-heap engine delivered it. *)
let link_dynamics_delivery_trace () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link () = Link.create engine pool ~bandwidth_bps:1e7 ~delay_s:0.01 ~capacity_pkts:100 in
  let a = link () and b = link () in
  let log = ref [] in
  let deliver tag pkt =
    log := Printf.sprintf "%s %d %h" tag (Packet.seq pool pkt) (Engine.now engine) :: !log;
    Packet.release pool pkt
  in
  Link.set_receiver a (deliver "a");
  Link.set_receiver b (deliver "b");
  (* Every third packet is an ACK, so each link serializes two sizes. *)
  let send link seq =
    let now = Engine.now engine in
    Link.send link
      (if seq mod 3 = 2 then
         Packet.acquire_ack pool ~flow:0 ~src:1 ~dst:0 ~next_expected:seq ~has_echo:false
           ~echo_sent_at:0. ~echo_tx_time:0. ~ece:false ~now
       else Packet.acquire_data pool ~flow:0 ~src:0 ~dst:1 ~seq ~now ~retransmit:false)
  in
  let at time f = ignore (Engine.schedule_at engine ~time f) in
  for seq = 0 to 11 do
    send a seq;
    send b (100 + seq)
  done;
  at 0.004 (fun () -> Link.set_delay_s a 0.002);
  at 0.013 (fun () ->
      Link.set_rate_bps a 2e7;
      Link.set_delay_s a 0.03;
      for seq = 12 to 19 do
        send a seq;
        send b (100 + seq)
      done);
  at 0.016 (fun () -> Link.set_rate_bps a 5e6);
  Engine.run engine;
  List.rev !log

let test_link_dynamics_delivery_trace_pinned () =
  Alcotest.(check (list string))
    "deliveries"
    [
      "a 0 0x1.6f0068db8bac7p-7";
      "b 100 0x1.6f0068db8bac7p-7";
      "b 101 0x1.700cd855970b5p-7";
      "a 1 0x1.9652bd3c36113p-7";
      "b 102 0x1.975f2cb641701p-7";
      "a 2 0x1.975f2cb641701p-7";
      "b 103 0x1.beb18116ebd4dp-7";
      "a 3 0x1.beb18116ebd4dp-7";
      "a 4 0x1.beb18116ebd4dp-7";
      "a 5 0x1.beb18116ebd4dp-7";
      "a 6 0x1.beb18116ebd4dp-7";
      "a 7 0x1.beb18116ebd4dp-7";
      "a 8 0x1.beb18116ebd4dp-7";
      "a 9 0x1.beb18116ebd4dp-7";
      "a 10 0x1.beb18116ebd4dp-7";
      "a 11 0x1.beb18116ebd4dp-7";
      "b 104 0x1.bfbdf090f733ap-7";
      "b 105 0x1.e71044f1a1986p-7";
      "b 106 0x1.07314ca925fe9p-6";
      "b 107 0x1.07b784662baep-6";
      "b 108 0x1.1b60ae9680e06p-6";
      "b 109 0x1.2f09d8c6d612cp-6";
      "b 110 0x1.2f901083dbc23p-6";
      "b 111 0x1.43393ab430f49p-6";
      "b 112 0x1.8c7e28240b78p-6";
      "b 113 0x1.8d045fe111277p-6";
      "b 114 0x1.a0ad8a116659dp-6";
      "b 115 0x1.b456b441bb8c4p-6";
      "b 116 0x1.b4dcebfec13bap-6";
      "b 117 0x1.c886162f166ep-6";
      "b 118 0x1.dc2f405f6ba06p-6";
      "b 119 0x1.dcb5781c714fep-6";
      "a 12 0x1.652bd3c361134p-5";
      "a 13 0x1.6a161e4f765fdp-5";
      "a 14 0x1.6a37ac3eb7cbbp-5";
      "a 15 0x1.6f21f6cacd184p-5";
      "a 16 0x1.740c4156e264ep-5";
      "a 17 0x1.742dcf4623d0cp-5";
      "a 18 0x1.791819d2391d6p-5";
      "a 19 0x1.8cc144028e4fcp-5";
    ]
    (link_dynamics_delivery_trace ())

let suite =
  [
    ("packet constructors", `Quick, test_packet_constructors);
    ("packet sack limit", `Quick, test_packet_sack_limit);
    ("packet recycling", `Quick, test_packet_recycling);
    ("packet double release", `Quick, test_packet_double_release_rejected);
    ("packet round trip across pools", `Quick, test_packet_round_trip_across_pools);
    ("link delivery timing", `Quick, test_link_delivery_timing);
    ("link fifo order", `Quick, test_link_fifo_order);
    ("link drop tail", `Quick, test_link_drop_tail);
    ("link busy time", `Quick, test_link_busy_time_utilization);
    ("link queue wait", `Quick, test_link_queue_wait);
    ("link fault injection", `Quick, test_link_fault_injection);
    ("link flap freezes queue", `Quick, test_link_flap_freezes_queue);
    ("link set_up idempotent", `Quick, test_link_set_up_idempotent);
    ("link rate change mid-tx", `Quick, test_link_rate_change_mid_transmission);
    ("link delay jitter fifo", `Quick, test_link_delay_jitter_never_reorders);
    ("link delay increase", `Quick, test_link_delay_increase_takes_effect);
    ("link dynamics validation", `Quick, test_link_dynamics_validation);
    ("link stats window", `Quick, test_link_stats_window);
    ("link validation", `Quick, test_link_validation);
    ("red no drops below min", `Quick, test_red_no_drops_below_min_threshold);
    ("red drops above max", `Quick, test_red_drops_above_max_threshold);
    ("red probabilistic band", `Quick, test_red_probabilistic_band);
    ("red validation", `Quick, test_red_validation);
    ("red shortens cubic queue", `Slow, test_red_keeps_cubic_queue_short_end_to_end);
    ("node local delivery", `Quick, test_node_local_delivery);
    ("node forwarding", `Quick, test_node_forwarding);
    ("node default route", `Quick, test_node_default_route);
    ("node no route fails", `Quick, test_node_no_route_fails);
    ("dumbbell dimensions", `Quick, test_dumbbell_dimensions);
    ("dumbbell end-to-end rtt", `Quick, test_dumbbell_end_to_end_rtt);
    ("dumbbell rejects tiny rtt", `Quick, test_dumbbell_rejects_tiny_rtt);
    ("dumbbell rejects nan rtt", `Quick, test_dumbbell_rejects_nan_rtt);
    ("dumbbell rejects nan buffer factor", `Quick, test_dumbbell_rejects_nan_buffer_factor);
    ("wan id helpers match its declaration", `Quick, test_wan_id_helpers);
    ("find_link rejects the empty label", `Quick, test_find_link_rejects_empty_label);
    ("chain slowest hop bounds", `Slow, test_lot_long_flow_bounded_by_slowest_hop);
    ("chain cross traffic squeezes", `Slow, test_lot_cross_traffic_squeezes_long_flow);
    ("chain hops independent", `Slow, test_lot_hops_load_independently);
    ("chain validation", `Quick, test_lot_validation);
    ("monitor utilization bins", `Quick, test_monitor_utilization_bins);
    QCheck_alcotest.to_alcotest prop_zoo_ids_resolve;
  ]
  @ List.map link_create_rejects non_finite_link_params
  @ List.map graph_add_link_rejects non_finite_link_params
  @ node_rejects_negative
  @ [
      ("node colliding flows each reach their handler", `Quick, test_node_colliding_flows_demux);
      ("node unbind keeps the other flows", `Quick, test_node_unbind_keeps_other_flows);
      ("node rebinding replaces the handler", `Quick, test_node_rebind_replaces_handler);
      ("node route table grows to a new highest id", `Quick, test_node_route_table_grows);
      ("dumbbell one-pass description matches the replay", `Quick, test_dumbbell_one_pass_description);
      ("link delay and rate changes deliver as pinned", `Quick,
        test_link_dynamics_delivery_trace_pinned);
    ]
