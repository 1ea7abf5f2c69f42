(* Tests for phi_tcp: RTO estimation, congestion controllers, the
   receiver, and the SACK sender driven over real simulated links. *)

module Engine = Phi_sim.Engine
module Packet = Phi_net.Packet
module Link = Phi_net.Link
module Node = Phi_net.Node
module Topology = Phi_net.Topology
module Prng = Phi_util.Prng
open Phi_tcp

(* {2 Rto} *)

let test_rto_initial () =
  let rto = Rto.create () in
  Alcotest.(check (float 0.)) "1 s before samples" 1. (Rto.current rto);
  Alcotest.(check (float 0.)) "no srtt -> default" 0.42 (Rto.srtt rto ~default:0.42)

let test_rto_first_sample () =
  let rto = Rto.create () in
  Rto.observe rto ~rtt:0.1;
  (* srtt = 0.1, rttvar = 0.05 -> rto = 0.3. *)
  Alcotest.(check (float 1e-9)) "srtt + 4 var" 0.3 (Rto.current rto);
  Alcotest.(check (float 1e-9)) "srtt" 0.1 (Rto.srtt rto ~default:0.)

let test_rto_converges () =
  let rto = Rto.create () in
  for _ = 1 to 100 do
    Rto.observe rto ~rtt:0.2
  done;
  (* Constant samples: rttvar decays towards 0, rto towards max(srtt, min). *)
  Alcotest.(check bool) "close to srtt" true (Rto.current rto < 0.25)

let test_rto_backoff () =
  let rto = Rto.create () in
  Rto.observe rto ~rtt:0.1;
  let base = Rto.current rto in
  Rto.backoff rto;
  Alcotest.(check (float 1e-9)) "doubled" (base *. 2.) (Rto.current rto);
  Rto.backoff rto;
  Alcotest.(check (float 1e-9)) "doubled again" (base *. 4.) (Rto.current rto);
  Rto.observe rto ~rtt:0.1;
  (* A fresh sample clears the backoff (and shrinks rttvar further). *)
  Alcotest.(check bool) "sample clears backoff" true (Rto.current rto <= base)

let test_rto_min_max () =
  let rto = Rto.create ~min_rto:0.5 ~max_rto:2. () in
  Rto.observe rto ~rtt:0.001;
  Alcotest.(check (float 1e-9)) "floored" 0.5 (Rto.current rto);
  for _ = 1 to 10 do
    Rto.backoff rto
  done;
  Alcotest.(check (float 1e-9)) "capped" 2. (Rto.current rto)

(* {2 Congestion controllers} *)

let test_reno_slow_start_then_ca () =
  let cc = Reno.make ~initial_cwnd:2. ~initial_ssthresh:4. () in
  Alcotest.(check bool) "starts in slow start" true (Cc.in_slow_start cc);
  cc.Cc.on_ack cc ~now:0. ~rtt:0.1 ~sent_at:0. ~newly_acked:1;
  Alcotest.(check (float 1e-9)) "slow start +1" 3. cc.Cc.cwnd;
  cc.Cc.on_ack cc ~now:0. ~rtt:0.1 ~sent_at:0. ~newly_acked:5;
  Alcotest.(check (float 1e-9)) "capped at ssthresh" 4. cc.Cc.cwnd;
  let before = cc.Cc.cwnd in
  cc.Cc.on_ack cc ~now:0. ~rtt:0.1 ~sent_at:0. ~newly_acked:1;
  Alcotest.(check (float 1e-9)) "CA +1/cwnd" (before +. (1. /. before)) cc.Cc.cwnd

let test_reno_loss_halves () =
  let cc = Reno.make ~initial_cwnd:10. ~initial_ssthresh:5. () in
  cc.Cc.on_loss cc ~now:0.;
  Alcotest.(check (float 1e-9)) "halved" 5. cc.Cc.cwnd;
  Alcotest.(check (float 1e-9)) "ssthresh follows" 5. cc.Cc.ssthresh

let test_reno_timeout_resets () =
  let cc = Reno.make ~initial_cwnd:10. ~initial_ssthresh:5. () in
  cc.Cc.on_timeout cc ~now:0.;
  Alcotest.(check (float 1e-9)) "cwnd 1" 1. cc.Cc.cwnd;
  Alcotest.(check (float 1e-9)) "ssthresh half" 5. cc.Cc.ssthresh

let test_reno_raw_halving () =
  (* The controller reports its raw multiplicative decrease; the
     min-cwnd floor is enforced once, by the sender, after every
     controller hook (see the buggy-controller property below). *)
  let cc = Reno.make ~initial_cwnd:2. ~initial_ssthresh:2. () in
  cc.Cc.on_loss cc ~now:0.;
  Alcotest.(check (float 1e-9)) "raw halving below min_cwnd" 1. cc.Cc.cwnd;
  Alcotest.(check bool) "min_cwnd is the sender's floor" true (cc.Cc.cwnd < Cc.min_cwnd)

let test_weighted_reno_increase () =
  let w = 4. in
  let cc = Reno.make_weighted ~weight:w ~initial_cwnd:10. ~initial_ssthresh:5. () in
  let before = cc.Cc.cwnd in
  cc.Cc.on_ack cc ~now:0. ~rtt:Float.nan ~sent_at:0. ~newly_acked:1;
  Alcotest.(check (float 1e-9)) "w/cwnd per ack" (before +. (w /. before)) cc.Cc.cwnd

let test_weighted_reno_gentle_decrease () =
  let cc = Reno.make_weighted ~weight:4. ~initial_cwnd:16. ~initial_ssthresh:8. () in
  cc.Cc.on_loss cc ~now:0.;
  (* factor 1 - 1/(2 * 4) = 0.875 *)
  Alcotest.(check (float 1e-9)) "MulTCP decrease" 14. cc.Cc.cwnd

let test_weighted_reno_rejects_bad_weight () =
  let raised = try ignore (Reno.make_weighted ~weight:0. ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "weight 0 rejected" true raised

let test_cubic_defaults_match_table1 () =
  let p = Cubic.default_params in
  Alcotest.(check (float 0.)) "windowInit_" 2. p.Cubic.initial_cwnd;
  Alcotest.(check (float 0.)) "initial_ssthresh 65K" 65536. p.Cubic.initial_ssthresh;
  Alcotest.(check (float 0.)) "beta" 0.2 p.Cubic.beta

let test_cubic_slow_start () =
  let cc = Cubic.make (Cubic.with_knobs ~initial_cwnd:2. ~initial_ssthresh:8. Cubic.default_params) in
  cc.Cc.on_ack cc ~now:0. ~rtt:0.1 ~sent_at:0. ~newly_acked:2;
  Alcotest.(check (float 1e-9)) "doubling" 4. cc.Cc.cwnd

let test_cubic_beta_decrease () =
  let cc = Cubic.make (Cubic.with_knobs ~beta:0.3 ~initial_ssthresh:8. Cubic.default_params) in
  cc.Cc.cwnd <- 100.;
  cc.Cc.on_loss cc ~now:1.;
  Alcotest.(check (float 1e-6)) "(1-beta) cwnd" 70. cc.Cc.cwnd;
  Alcotest.(check (float 1e-6)) "ssthresh tracks" 70. cc.Cc.ssthresh

let test_cubic_concave_convex_growth () =
  (* After a loss at w_max=100, growth should approach w_max slowly then
     accelerate past it (cubic shape). *)
  let cc = Cubic.make (Cubic.with_knobs ~initial_ssthresh:2. Cubic.default_params) in
  cc.Cc.cwnd <- 100.;
  cc.Cc.on_loss cc ~now:0.;
  let w_after_loss = cc.Cc.cwnd in
  (* Feed steady acks at 100 ms RTT for 2 simulated seconds. *)
  let now = ref 0. in
  for _ = 1 to 20 do
    now := !now +. 0.1;
    cc.Cc.on_ack cc ~now:!now ~rtt:0.1 ~sent_at:(!now -. 0.1) ~newly_acked:10
  done;
  let w_2s = cc.Cc.cwnd in
  Alcotest.(check bool) "recovering towards w_max" true (w_2s > w_after_loss);
  for _ = 1 to 200 do
    now := !now +. 0.1;
    cc.Cc.on_ack cc ~now:!now ~rtt:0.1 ~sent_at:(!now -. 0.1) ~newly_acked:10
  done;
  Alcotest.(check bool) "eventually exceeds w_max" true (cc.Cc.cwnd > 100.)

let test_cubic_timeout () =
  let cc = Cubic.make Cubic.default_params in
  cc.Cc.cwnd <- 50.;
  cc.Cc.on_timeout cc ~now:1.;
  Alcotest.(check (float 1e-9)) "cwnd 1" 1. cc.Cc.cwnd;
  Alcotest.(check (float 1e-6)) "ssthresh = (1-beta) * 50" 40. cc.Cc.ssthresh

let test_cubic_rejects_bad_beta () =
  let raised =
    try ignore (Cubic.make (Cubic.with_knobs ~beta:1. Cubic.default_params)); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "beta 1 rejected" true raised

let test_cubic_params_to_string () =
  Alcotest.(check string) "render" "65536/2/0.2" (Cubic.params_to_string Cubic.default_params)

(* {2 Vegas} *)

let feed_vegas cc ~rtt ~epochs =
  (* One "epoch" = enough acks at a fixed RTT to pass the adjustment
     boundary. *)
  let now = ref 0.1 in
  for _ = 1 to epochs do
    now := !now +. rtt;
    cc.Cc.on_ack cc ~now:!now ~rtt:rtt ~sent_at:(!now -. rtt) ~newly_acked:1
  done

let test_vegas_grows_when_queue_empty () =
  let cc = Vegas.make ~initial_cwnd:10. ~initial_ssthresh:5. () in
  (* Constant RTT = base RTT: diff = 0 < alpha, so +1 per epoch. *)
  let before = cc.Cc.cwnd in
  feed_vegas cc ~rtt:0.1 ~epochs:10;
  Alcotest.(check bool) "grew additively" true
    (cc.Cc.cwnd > before && cc.Cc.cwnd <= before +. 10.)

let test_vegas_shrinks_when_queue_builds () =
  let cc = Vegas.make ~initial_cwnd:20. ~initial_ssthresh:5. () in
  (* Seed base_rtt low, then keep RTT 2x base: diff = cwnd/2 > beta. *)
  cc.Cc.on_ack cc ~now:0.05 ~rtt:0.1 ~sent_at:0. ~newly_acked:1;
  let before = cc.Cc.cwnd in
  feed_vegas cc ~rtt:0.2 ~epochs:10;
  Alcotest.(check bool) "shrank" true (cc.Cc.cwnd < before)

let test_vegas_loss_decrease_gentler_than_timeout () =
  let cc = Vegas.make ~initial_cwnd:40. ~initial_ssthresh:5. () in
  cc.Cc.on_loss cc ~now:0.;
  Alcotest.(check (float 1e-9)) "3/4 on loss" 30. cc.Cc.cwnd;
  cc.Cc.on_timeout cc ~now:0.;
  Alcotest.(check (float 1e-9)) "1 on timeout" 1. cc.Cc.cwnd

let test_vegas_validation () =
  let raised = try ignore (Vegas.make ~alpha:5. ~beta:2. ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "alpha > beta rejected" true raised

let test_vegas_keeps_queue_short_end_to_end () =
  (* A single Vegas flow on the paper dumbbell should hold much less
     queue than default Cubic does. *)
  let run cc =
    let engine = Engine.create () in
    let dumbbell = Topology.dumbbell engine { Topology.paper_spec with Topology.n = 1 } in
    let _recv = Receiver.create engine ~node:dumbbell.Topology.receivers.(0) ~flow:0 ~peer:0 in
    let sender =
      Sender.create engine
        ~node:dumbbell.Topology.senders.(0)
        ~flow:0
        ~dst:(Topology.receiver_id dumbbell 0)
        ~cc ~total_segments:Sender.persistent_total ()
    in
    Sender.start sender;
    Engine.run ~until:30. engine;
    let bneck = dumbbell.Topology.bottleneck in
    Link.total_queue_wait bneck /. float_of_int (Stdlib.max 1 (Link.packets_delivered bneck))
  in
  let vegas_delay = run (Vegas.make ()) in
  let cubic_delay = run (Cubic.make Cubic.default_params) in
  Alcotest.(check bool) "vegas queues far less than cubic" true
    (vegas_delay < cubic_delay /. 2.)

(* {2 Receiver} *)

(* A loopback node pair: receiver on node 1, ACKs captured by a probe
   bound on node 0 via a direct link pair.  The probe copies every field
   out of the pooled handle before it is recycled, recording
   (cumulative ack, rtt echo, sack blocks) per ACK, newest first. *)
let receiver_fixture () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let a = Node.create pool ~id:0 in
  let b = Node.create pool ~id:1 in
  let ab = Link.create engine pool ~bandwidth_bps:1e9 ~delay_s:0.001 ~capacity_pkts:1000 in
  let ba = Link.create engine pool ~bandwidth_bps:1e9 ~delay_s:0.001 ~capacity_pkts:1000 in
  Link.set_receiver ab (Node.receive b);
  Link.set_receiver ba (Node.receive a);
  Node.add_route a ~dst:1 ab;
  Node.add_route b ~dst:0 ba;
  let acks = ref [] in
  Node.bind_flow a ~flow:0 (fun pkt ->
      let echo =
        if Packet.ack_has_echo pool pkt then Some (Packet.ack_echo_sent_at pool pkt) else None
      in
      let sack =
        List.init (Packet.sack_count pool pkt) (fun i ->
            (Packet.sack_lo pool pkt i, Packet.sack_hi pool pkt i))
      in
      acks := (Packet.seq pool pkt, echo, sack) :: !acks);
  let recv = Receiver.create engine ~node:b ~flow:0 ~peer:0 in
  (engine, a, recv, acks)

let send_data engine node ~seq ~retransmit =
  Node.receive node
    (Packet.acquire_data (Node.pool node) ~flow:0 ~src:0 ~dst:1 ~seq ~now:(Engine.now engine)
       ~retransmit)

let test_receiver_in_order () =
  let engine, a, recv, acks = receiver_fixture () in
  for seq = 0 to 2 do
    send_data engine a ~seq ~retransmit:false
  done;
  Engine.run engine;
  Alcotest.(check int) "next expected" 3 (Receiver.next_expected recv);
  Alcotest.(check int) "three acks" 3 (List.length !acks);
  let cums = List.rev_map (fun (c, _, _) -> c) !acks in
  Alcotest.(check (list int)) "cumulative acks" [ 1; 2; 3 ] cums

let test_receiver_out_of_order_sack () =
  let engine, a, recv, acks = receiver_fixture () in
  send_data engine a ~seq:0 ~retransmit:false;
  send_data engine a ~seq:2 ~retransmit:false;
  send_data engine a ~seq:3 ~retransmit:false;
  Engine.run engine;
  Alcotest.(check int) "stuck at 1" 1 (Receiver.next_expected recv);
  let _, _, sack = List.hd !acks in
  Alcotest.(check (list (pair int int))) "sack block [2,4)" [ (2, 4) ] sack;
  (* Filling the hole advances over the buffered run. *)
  send_data engine a ~seq:1 ~retransmit:false;
  Engine.run engine;
  Alcotest.(check int) "advanced to 4" 4 (Receiver.next_expected recv)

let test_receiver_duplicate_segments () =
  let engine, a, recv, _acks = receiver_fixture () in
  send_data engine a ~seq:0 ~retransmit:false;
  Engine.run engine;
  send_data engine a ~seq:0 ~retransmit:true;
  Engine.run engine;
  Alcotest.(check int) "one distinct" 1 (Receiver.segments_received recv);
  Alcotest.(check int) "dup counted" 1 (Receiver.duplicate_segments recv)

let test_receiver_karn_no_echo_on_retransmit () =
  let engine, a, _recv, acks = receiver_fixture () in
  send_data engine a ~seq:0 ~retransmit:true;
  Engine.run engine;
  let _, echo, _ = List.hd !acks in
  Alcotest.(check bool) "no echo" true (echo = None)

(* The flat in-slab SACK ring must emit exactly the blocks the old
   cons-list collector did.  [Sack_model] is that old algorithm kept
   verbatim (list state, filter/take); the property drives the real
   receiver and the model over the same random arrival order and
   compares every ACK. *)
module Sack_model = struct
  type t = {
    buffered : (int, unit) Hashtbl.t;
    mutable recent : int list;
    mutable next_expected : int;
  }

  let create () = { buffered = Hashtbl.create 16; recent = []; next_expected = 0 }

  let block_around t seq =
    let lo = ref seq in
    while Hashtbl.mem t.buffered (!lo - 1) do decr lo done;
    let hi = ref (seq + 1) in
    while Hashtbl.mem t.buffered !hi do incr hi done;
    (!lo, !hi)

  let sack_blocks t =
    let rec collect acc seen = function
      | [] -> List.rev acc
      | _ when List.length acc >= Packet.max_sack_blocks -> List.rev acc
      | seq :: rest ->
        if seq < t.next_expected || not (Hashtbl.mem t.buffered seq) then collect acc seen rest
        else
          let lo, hi = block_around t seq in
          if List.mem (lo, hi) seen then collect acc seen rest
          else collect ((lo, hi) :: acc) ((lo, hi) :: seen) rest
    in
    collect [] [] t.recent

  let remember_recent t seq =
    let keep = List.filter (fun s -> s <> seq && s >= t.next_expected) t.recent in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    t.recent <- seq :: take (Packet.max_sack_blocks * 2) keep

  (* One data arrival; returns (cumulative ack, sack) exactly as the old
     receiver would have ACKed it. *)
  let receive t seq =
    if seq < t.next_expected || Hashtbl.mem t.buffered seq then (t.next_expected, sack_blocks t)
    else if seq = t.next_expected then begin
      t.next_expected <- t.next_expected + 1;
      while Hashtbl.mem t.buffered t.next_expected do
        Hashtbl.remove t.buffered t.next_expected;
        t.next_expected <- t.next_expected + 1
      done;
      t.recent <- List.filter (fun s -> s >= t.next_expected) t.recent;
      (t.next_expected, sack_blocks t)
    end
    else begin
      Hashtbl.add t.buffered seq ();
      remember_recent t seq;
      (t.next_expected, sack_blocks t)
    end
end

let prop_sack_ring_matches_list_model =
  QCheck.Test.make
    ~name:"flat SACK ring emits the same blocks as the old cons-list collector" ~count:200
    QCheck.(pair (int_range 0 10_000) (int_range 1 60))
    (fun (seed, n) ->
      let rng = Prng.create ~seed in
      (* A scrambled arrival order with a few duplicates at the end. *)
      let arrivals = Array.init n (fun i -> i) in
      Prng.shuffle rng arrivals;
      let dups = List.init (Stdlib.min 5 n) (fun _ -> arrivals.(Prng.int rng ~bound:n)) in
      let order = Array.to_list arrivals @ dups in
      let engine, a, _recv, acks = receiver_fixture () in
      let model = Sack_model.create () in
      let expected = List.map (Sack_model.receive model) order in
      List.iter (fun seq -> send_data engine a ~seq ~retransmit:false) order;
      Engine.run engine;
      let got = List.rev_map (fun (cum, _echo, sack) -> (cum, sack)) !acks in
      got = expected)

(* {2 Sender end-to-end} *)

type fixture = {
  engine : Engine.t;
  dumbbell : Topology.dumbbell;
  sender : Sender.t;
  receiver : Receiver.t;
}

(* Every end-to-end transfer below runs to a horizon well past its
   completion (about 20x the virtual time it takes), and asserts that
   it completed: a sender that can never finish, as under a broken
   scoreboard or receiver, keeps retransmitting, so without a horizon
   the case would spin instead of failing. *)
let quick_horizon_s = 60.
let lossy_horizon_s = 600.

let sender_fixture ?(spec = { Topology.paper_spec with Topology.n = 1 }) ?(total = 200)
    ?(cc = Cubic.make Cubic.default_params) () =
  let engine = Engine.create () in
  let dumbbell = Topology.dumbbell engine spec in
  let receiver =
    Receiver.create engine ~node:dumbbell.Topology.receivers.(0) ~flow:0 ~peer:0
  in
  let sender =
    Sender.create engine
      ~node:dumbbell.Topology.senders.(0)
      ~flow:0
      ~dst:(Topology.receiver_id dumbbell 0)
      ~cc ~total_segments:total ()
  in
  { engine; dumbbell; sender; receiver }

let test_sender_completes_clean_path () =
  let f = sender_fixture ~total:100 () in
  let completed = ref None in
  let f =
    (* Rebuild with an on_complete hook. *)
    ignore f;
    let engine = Engine.create () in
    let dumbbell = Topology.dumbbell engine { Topology.paper_spec with Topology.n = 1 } in
    let receiver = Receiver.create engine ~node:dumbbell.Topology.receivers.(0) ~flow:0 ~peer:0 in
    let sender =
      Sender.create engine
        ~node:dumbbell.Topology.senders.(0)
        ~flow:0
        ~dst:(Topology.receiver_id dumbbell 0)
        ~cc:(Cubic.make Cubic.default_params) ~total_segments:100
        ~on_complete:(fun stats -> completed := Some stats)
        ()
    in
    { engine; dumbbell; sender; receiver }
  in
  Sender.start f.sender;
  Engine.run ~until:quick_horizon_s f.engine;
  Alcotest.(check bool) "completed" true (Sender.completed f.sender);
  Alcotest.(check int) "all acked" 100 (Sender.acked_segments f.sender);
  Alcotest.(check int) "receiver got all" 100 (Receiver.segments_received f.receiver);
  Alcotest.(check int) "no retransmissions" 0 (Sender.retransmitted_segments f.sender);
  match !completed with
  | None -> Alcotest.fail "no completion callback"
  | Some stats ->
    Alcotest.(check int) "stats bytes" (100 * Packet.mss) stats.Flow.bytes;
    Alcotest.(check bool) "rtt sampled" true (stats.Flow.rtt_samples > 0);
    Alcotest.(check bool) "min rtt sane" true (stats.Flow.min_rtt > 0.14 && stats.Flow.min_rtt < 0.2)

let test_sender_throughput_bounded_by_link () =
  let f = sender_fixture ~total:2000 () in
  Sender.start f.sender;
  Engine.run ~until:quick_horizon_s f.engine;
  let stats = Sender.stats f.sender in
  let thr = Flow.throughput_bps stats in
  Alcotest.(check bool) "below capacity" true (thr <= 15e6 +. 1e-6);
  Alcotest.(check bool) "above half capacity" true (thr > 7.5e6)

let test_sender_recovers_from_injected_loss () =
  let f = sender_fixture ~total:500 () in
  Link.set_fault_injection f.dumbbell.Topology.bottleneck ~rng:(Prng.create ~seed:5)
    ~drop_probability:0.02;
  Sender.start f.sender;
  Engine.run ~until:quick_horizon_s f.engine;
  Alcotest.(check bool) "completed despite loss" true (Sender.completed f.sender);
  Alcotest.(check int) "receiver got everything" 500 (Receiver.segments_received f.receiver);
  Alcotest.(check bool) "did retransmit" true (Sender.retransmitted_segments f.sender > 0)

let test_sender_recovers_from_severe_loss () =
  let f = sender_fixture ~total:300 () in
  Link.set_fault_injection f.dumbbell.Topology.bottleneck ~rng:(Prng.create ~seed:6)
    ~drop_probability:0.2;
  Sender.start f.sender;
  Engine.run ~until:lossy_horizon_s f.engine;
  Alcotest.(check bool) "completed at 20% loss" true (Sender.completed f.sender)

let test_sender_abort_cancels () =
  let f = sender_fixture ~total:10_000 () in
  Sender.start f.sender;
  Engine.run ~until:1. f.engine;
  Sender.abort f.sender;
  Engine.run ~until:quick_horizon_s f.engine;
  Alcotest.(check bool) "engine drains after abort" true (Engine.pending f.engine = 0)

let test_sender_cwnd_grows_in_slow_start () =
  let f = sender_fixture ~total:5000 () in
  Sender.start f.sender;
  Engine.run ~until:1. f.engine;
  Alcotest.(check bool) "grew from 2" true (Sender.cwnd f.sender > 8.)

let test_sender_timeout_on_blackout () =
  (* Drop everything after the first RTT: only the RTO path can notice. *)
  let f = sender_fixture ~total:50 () in
  Sender.start f.sender;
  Engine.run ~until:0.5 f.engine;
  Link.set_fault_injection f.dumbbell.Topology.bottleneck ~rng:(Prng.create ~seed:7)
    ~drop_probability:1.0;
  Engine.run ~until:10. f.engine;
  Alcotest.(check bool) "timeouts fired" true (Sender.timeouts f.sender > 0);
  (* Heal the path; the transfer must finish. *)
  Link.set_fault_injection f.dumbbell.Topology.bottleneck ~rng:(Prng.create ~seed:8)
    ~drop_probability:0.;
  Engine.run ~until:lossy_horizon_s f.engine;
  Alcotest.(check bool) "completed after healing" true (Sender.completed f.sender)

let test_ecn_marks_instead_of_drops () =
  (* A sane initial ssthresh avoids the slow-start burst that would
     physically overflow the queue before RED's lagging average reacts;
     with it, ECN carries the whole congestion signal without a single
     drop or retransmission. *)
  let cc () = Cubic.make (Cubic.with_knobs ~initial_ssthresh:64. Cubic.default_params) in
  let run ~ecn =
    let f = sender_fixture ~cc:(cc ()) ~total:Sender.persistent_total () in
    let bneck = f.dumbbell.Topology.bottleneck in
    Link.set_discipline bneck ~rng:(Prng.create ~seed:11)
      (Link.Red (Link.default_red ~ecn ~capacity_pkts:(Link.capacity_pkts bneck) ()));
    Sender.start f.sender;
    Engine.run ~until:30. f.engine;
    (f, bneck)
  in
  let f_ecn, bneck_ecn = run ~ecn:true in
  let _f_red, bneck_red = run ~ecn:false in
  Alcotest.(check bool) "marks happened" true (Link.ecn_marks bneck_ecn > 0);
  Alcotest.(check int) "no drops" 0 (Link.drops bneck_ecn);
  Alcotest.(check int) "no retransmissions" 0
    (Sender.retransmitted_segments f_ecn.sender);
  Alcotest.(check bool) "sender reduced on echoes" true
    (Sender.ecn_reductions f_ecn.sender > 0);
  Alcotest.(check bool) "drop-based RED does drop" true (Link.drops bneck_red > 0);
  let thr = Flow.throughput_bps (Sender.stats f_ecn.sender) in
  Alcotest.(check bool) "still near capacity" true (thr > 10e6)

let test_ecn_reacts_at_most_once_per_rtt () =
  let f = sender_fixture ~total:Sender.persistent_total () in
  Link.set_discipline f.dumbbell.Topology.bottleneck ~rng:(Prng.create ~seed:12)
    (Link.Red
       (Link.default_red ~ecn:true
          ~capacity_pkts:(Link.capacity_pkts f.dumbbell.Topology.bottleneck)
          ()));
  Sender.start f.sender;
  Engine.run ~until:30. f.engine;
  (* 30 s at ~0.15-0.2 s RTT: reductions bounded by elapsed/RTT. *)
  Alcotest.(check bool) "reductions rate-limited" true
    (Sender.ecn_reductions f.sender <= 200)

let prop_delivery_integrity =
  QCheck.Test.make ~name:"tcp delivers everything exactly once under random loss" ~count:25
    QCheck.(pair (int_range 1 400) (pair (int_range 0 10_000) (int_range 0 15)))
    (fun (total, (seed, loss_pct)) ->
      let engine = Engine.create () in
      let dumbbell =
        Topology.dumbbell engine { Topology.paper_spec with Topology.n = 1 }
      in
      let receiver =
        Receiver.create engine ~node:dumbbell.Topology.receivers.(0) ~flow:0 ~peer:0
      in
      let sender =
        Sender.create engine
          ~node:dumbbell.Topology.senders.(0)
          ~flow:0
          ~dst:(Topology.receiver_id dumbbell 0)
          ~cc:(Cubic.make Cubic.default_params) ~total_segments:total ()
      in
      Link.set_fault_injection dumbbell.Topology.bottleneck ~rng:(Prng.create ~seed)
        ~drop_probability:(float_of_int loss_pct /. 100.);
      Sender.start sender;
      Engine.run ~until:600. engine;
      Sender.completed sender
      && Receiver.segments_received receiver = total
      && Receiver.next_expected receiver = total)

(* The min-cwnd floor lives in exactly one place — the sender, after
   every controller hook.  This adversarial controller poisons cwnd and
   ssthresh with NaN, negative, zero and sub-floor values on every loss
   and timeout; the sender must keep the effective window finite and at
   or above one segment throughout, and still finish the transfer. *)
let buggy_cc () =
  let garbage = [| -5.; 0.; 0.5; Float.nan |] in
  let k = ref 0 in
  let poison (cc : Cc.t) =
    cc.Cc.cwnd <- garbage.(!k mod Array.length garbage);
    cc.Cc.ssthresh <- garbage.((!k + 1) mod Array.length garbage);
    incr k
  in
  Cc.make ~name:"buggy" ~initial_cwnd:4. ~initial_ssthresh:8.
    ~on_ack:(fun cc ~now:_ ~rtt:_ ~sent_at:_ ~newly_acked:_ -> cc.Cc.cwnd <- cc.Cc.cwnd +. 0.5)
    ~on_loss:(fun cc ~now:_ -> poison cc)
    ~on_timeout:(fun cc ~now:_ -> poison cc)
    ()

let prop_sender_floors_buggy_controllers =
  QCheck.Test.make
    ~name:"sender floors cwnd against adversarial controllers (NaN/negative/sub-min)" ~count:15
    QCheck.(pair (int_range 0 10_000) (int_range 5 25))
    (fun (seed, loss_pct) ->
      let engine = Engine.create () in
      let dumbbell = Topology.dumbbell engine { Topology.paper_spec with Topology.n = 1 } in
      let receiver =
        Receiver.create engine ~node:dumbbell.Topology.receivers.(0) ~flow:0 ~peer:0
      in
      let sender =
        Sender.create engine
          ~node:dumbbell.Topology.senders.(0)
          ~flow:0
          ~dst:(Topology.receiver_id dumbbell 0)
          ~cc:(buggy_cc ()) ~total_segments:150 ()
      in
      Link.set_fault_injection dumbbell.Topology.bottleneck ~rng:(Prng.create ~seed)
        ~drop_probability:(float_of_int loss_pct /. 100.);
      Sender.start sender;
      (* Step in one-second slices so the invariant is checked while the
         adversary is mid-flight, not just at the end. *)
      let ok = ref true in
      let t = ref 0. in
      while !ok && (not (Sender.completed sender)) && !t < 600. do
        t := !t +. 1.;
        Engine.run ~until:!t engine;
        let w = Sender.cwnd sender in
        if not (Float.is_finite w && w >= 1.) then ok := false
      done;
      !ok && Sender.completed sender && Receiver.segments_received receiver = 150)

(* The receiver's reorder ring against first principles, on windows wide
   enough that the ring must grow past {!Seq_ring.initial_capacity}: after
   every arrival, duplicates included, the cumulative ACK is the lowest
   missing seq and each SACK block is a maximal received run above it. *)
let prop_receiver_acks_describe_arrivals =
  QCheck.Test.make ~name:"receiver acks name the lowest hole and maximal runs above it"
    ~count:100
    QCheck.(triple (int_range 0 10_000) (int_range 1 300) (int_range 0 40))
    (fun (seed, n, n_dups) ->
      let rng = Prng.create ~seed in
      let order =
        Array.append (Array.init n (fun i -> i)) (Array.init n_dups (fun _ -> Prng.int rng ~bound:n))
      in
      Prng.shuffle rng order;
      let engine, a, _recv, acks = receiver_fixture () in
      Array.iter (fun seq -> send_data engine a ~seq ~retransmit:false) order;
      Engine.run engine;
      let received = Array.make (n + 1) false in
      let holds (seq, (cum, _echo, sack)) =
        received.(seq) <- true;
        let lowest_missing = ref 0 in
        while received.(!lowest_missing) do incr lowest_missing done;
        let maximal_run (lo, hi) =
          !lowest_missing < lo && lo < hi && hi <= n
          && (not received.(lo - 1))
          && (not received.(hi))
          && List.for_all (fun s -> received.(s)) (List.init (hi - lo) (fun i -> lo + i))
        in
        cum = !lowest_missing
        && List.length sack <= Packet.max_sack_blocks
        && List.for_all maximal_run sack
      in
      List.length !acks = Array.length order
      && List.for_all holds (List.combine (Array.to_list order) (List.rev !acks)))

(* A hole wider than the scoreboard ring's first allocation: the SACKed
   segments above it sit further from [snd_una] than the ring first
   holds, so it must grow mid-recovery.  A fixed 150-segment window (under
   the path's 188-packet BDP, so nothing queues) sends the whole hole in
   one flight; the bottleneck drops each hole segment's first copy. *)
let test_sender_recovers_wide_hole () =
  let hole_lo = 20 and hole_width = Seq_ring.initial_capacity + 36 and total = 400 in
  let fixed_window =
    Cc.make ~name:"fixed" ~initial_cwnd:150. ~initial_ssthresh:150.
      ~on_ack:(fun _ ~now:_ ~rtt:_ ~sent_at:_ ~newly_acked:_ -> ())
      ~on_loss:(fun _ ~now:_ -> ())
      ~on_timeout:(fun _ ~now:_ -> ())
      ()
  in
  let f = sender_fixture ~cc:fixed_window ~total () in
  let d = f.dumbbell in
  let pool = d.Topology.pool in
  Link.set_receiver d.Topology.bottleneck (fun h ->
      let seq = Packet.seq pool h in
      if
        Packet.is_data pool h
        && (not (Packet.retransmit pool h))
        && seq >= hole_lo
        && seq < hole_lo + hole_width
      then Packet.release pool h
      else Node.receive d.Topology.right_router h);
  Sender.start f.sender;
  Engine.run ~until:quick_horizon_s f.engine;
  Alcotest.(check bool) "completed" true (Sender.completed f.sender);
  Alcotest.(check int) "every segment acknowledged" total (Sender.acked_segments f.sender);
  Alcotest.(check int) "receiver got every segment" total (Receiver.segments_received f.receiver);
  Alcotest.(check bool) "the hole was retransmitted" true
    (Sender.retransmitted_segments f.sender >= hole_width)

(* A seeded run of 300 events through Cubic: ACKs (a fifth of them
   without an RTT sample), 3 % losses and 2 % timeouts, with the
   sender's floors applied after each loss and timeout.  Every 25th
   step's (cwnd, ssthresh) is pinned bit for bit.  The values were
   recorded while Cubic still kept [epoch_start] as an option, so they
   pin that the NaN sentinel opens and closes the same epochs. *)
let test_cubic_seeded_trajectory () =
  let cc = Cubic.make Cubic.default_params in
  let rng = Prng.create ~seed:2204 in
  let now = ref 0. and losses = ref 0 and timeouts = ref 0 in
  let marks = ref [] in
  for step = 1 to 300 do
    now := !now +. Prng.float_range rng ~lo:0.005 ~hi:0.05;
    let draw = Prng.int rng ~bound:100 in
    if draw < 3 then begin
      incr losses;
      cc.Cc.on_loss cc ~now:!now;
      cc.Cc.cwnd <- Float.max cc.Cc.cwnd Cc.min_cwnd;
      cc.Cc.ssthresh <- Float.max cc.Cc.ssthresh Cc.min_cwnd
    end
    else if draw < 5 then begin
      incr timeouts;
      cc.Cc.on_timeout cc ~now:!now;
      cc.Cc.cwnd <- Float.max cc.Cc.cwnd 1.;
      cc.Cc.ssthresh <- Float.max cc.Cc.ssthresh Cc.min_cwnd
    end
    else begin
      let rtt =
        if Prng.int rng ~bound:5 = 0 then Float.nan else Prng.float_range rng ~lo:0.1 ~hi:0.3
      in
      cc.Cc.on_ack cc ~now:!now ~rtt ~sent_at:(!now -. 0.2)
        ~newly_acked:(1 + Prng.int rng ~bound:3)
    end;
    if step mod 25 = 0 then marks := Printf.sprintf "%h %h" cc.Cc.cwnd cc.Cc.ssthresh :: !marks
  done;
  Alcotest.(check (pair int int)) "losses, timeouts" (13, 8) (!losses, !timeouts);
  Alcotest.(check (list string))
    "cwnd ssthresh every 25 steps"
    [
      "0x1.52fda40f05669p+2 0x1p+1";
      "0x1.5db56d4ea54cdp+2 0x1.52601068451f4p+2";
      "0x1.01fefc2d920cfp+2 0x1.fd57d47cb9adcp+1";
      "0x1.1cba9ad69a72dp+2 0x1.ab2541b457df4p+1";
      "0x1.6052d70aaf14p+2 0x1.03af227e1c989p+2";
      "0x1.99febb7f74304p+2 0x1.1e0288d59133bp+2";
      "0x1.caee0a0889bcbp+2 0x1.47fefc65f68dp+2";
      "0x1.701a0051377fdp+2 0x1.3b356023f66dp+2";
      "0x1.de8ec41c0011cp+2 0x1.3b356023f66dp+2";
      "0x1.19c3ecf058d77p+2 0x1.adfbfef4b1422p+1";
      "0x1.a1a0f7a4b6695p+2 0x1.adfbfef4b1422p+1";
      "0x1.5eedb1eed385dp+2 0x1.3e10ca1ef9cedp+2";
    ]
    (List.rev !marks)

(* The receiver keeps its reorder set as a sorted list of maximal runs
   and finds each SACK block by binary search.  [Scan_model] is the
   receiver it replaced: a per-seq set, each block expanded from a
   recent seq by the [block_lo]/[block_hi] scans, over the same recent
   array.  The property drives both over random arrival orders with
   duplicates anywhere, scrambled wholesale or only locally (many short
   holes), and compares every ACK's cumulative number and blocks. *)
module Scan_model = struct
  type t = {
    buffered : (int, unit) Hashtbl.t;
    recent : int array;
    mutable n_recent : int;
    mutable next_expected : int;
  }

  let create () =
    {
      buffered = Hashtbl.create 16;
      recent = Array.make ((Packet.max_sack_blocks * 2) + 1) 0;
      n_recent = 0;
      next_expected = 0;
    }

  let is_buffered t seq = Hashtbl.mem t.buffered seq
  let rec block_lo t lo = if is_buffered t (lo - 1) then block_lo t (lo - 1) else lo
  let rec block_hi t hi = if is_buffered t hi then block_hi t (hi + 1) else hi

  let rec compact t ~drop i w =
    if i >= t.n_recent then w
    else begin
      let s = t.recent.(i) in
      if s <> drop && s >= t.next_expected then begin
        t.recent.(w) <- s;
        compact t ~drop (i + 1) (w + 1)
      end
      else compact t ~drop (i + 1) w
    end

  let remember_recent t seq =
    let keep = Stdlib.min (compact t ~drop:seq 0 0) (Packet.max_sack_blocks * 2) in
    for i = keep downto 1 do
      t.recent.(i) <- t.recent.(i - 1)
    done;
    t.recent.(0) <- seq;
    t.n_recent <- keep + 1

  let blocks t =
    let acc = ref [] in
    for k = 0 to t.n_recent - 1 do
      let seq = t.recent.(k) in
      if List.length !acc < Packet.max_sack_blocks && is_buffered t seq then begin
        let b = (block_lo t seq, block_hi t (seq + 1)) in
        if not (List.mem b !acc) then acc := b :: !acc
      end
    done;
    List.rev !acc

  let receive t seq =
    if seq < t.next_expected || is_buffered t seq then ()
    else if seq = t.next_expected then begin
      t.next_expected <- t.next_expected + 1;
      while is_buffered t t.next_expected do
        Hashtbl.remove t.buffered t.next_expected;
        t.next_expected <- t.next_expected + 1
      done;
      t.n_recent <- compact t ~drop:min_int 0 0
    end
    else begin
      Hashtbl.replace t.buffered seq ();
      remember_recent t seq
    end;
    (t.next_expected, blocks t)
end

let prop_run_list_matches_block_scan =
  QCheck.Test.make ~name:"run-list receiver emits the blocks of the block_lo/block_hi scan"
    ~count:300
    QCheck.(triple (int_range 0 10_000) (int_range 1 120) bool)
    (fun (seed, n, local) ->
      let rng = Prng.create ~seed in
      let arrivals = Array.init n (fun i -> i) in
      if local then
        (* Swaps within a window of 6: mostly in order, many holes. *)
        for i = 0 to n - 1 do
          let j = Stdlib.min (n - 1) (i + Prng.int rng ~bound:6) in
          let x = arrivals.(i) in
          arrivals.(i) <- arrivals.(j);
          arrivals.(j) <- x
        done
      else Prng.shuffle rng arrivals;
      (* Duplicates of random segments, at random points of the order. *)
      let order =
        List.concat_map
          (fun seq ->
            if Prng.int rng ~bound:4 = 0 then [ seq; arrivals.(Prng.int rng ~bound:n) ]
            else [ seq ])
          (Array.to_list arrivals)
      in
      let engine, a, _recv, acks = receiver_fixture () in
      let model = Scan_model.create () in
      let expected = List.map (Scan_model.receive model) order in
      List.iter (fun seq -> send_data engine a ~seq ~retransmit:false) order;
      Engine.run engine;
      let got = List.rev_map (fun (cum, _echo, sack) -> (cum, sack)) !acks in
      got = expected)

(* {2 The SACK scoreboard}

   A sender on an isolated node whose data leaves on a sink link, fed
   synthetic ACKs through the node: [ack_stream] drives it with SACK
   streams a receiver could send and some it could not. *)
let sink_sender () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let node = Node.create pool ~id:0 in
  let sink = Link.create engine pool ~bandwidth_bps:1e10 ~delay_s:1e-4 ~capacity_pkts:100_000 in
  Link.set_receiver sink (Packet.release pool);
  Node.set_default_route node sink;
  let fixed_window =
    Cc.make ~name:"fixed" ~initial_cwnd:48. ~initial_ssthresh:48.
      ~on_ack:(fun _ ~now:_ ~rtt:_ ~sent_at:_ ~newly_acked:_ -> ())
      ~on_loss:(fun _ ~now:_ -> ())
      ~on_timeout:(fun _ ~now:_ -> ())
      ()
  in
  let sender =
    Sender.create engine ~node ~flow:0 ~dst:1 ~cc:fixed_window
      ~total_segments:Sender.persistent_total ()
  in
  Sender.start sender;
  (engine, node, sender)

let deliver_ack engine node ~ack_seq ~tx_time blocks =
  let pool = Node.pool node in
  let h =
    Packet.acquire_ack pool ~flow:0 ~src:1 ~dst:0 ~next_expected:ack_seq ~has_echo:false
      ~echo_sent_at:0. ~echo_tx_time:tx_time ~ece:false ~now:(Engine.now engine)
  in
  List.iter (fun (lo, hi) -> Packet.add_sack pool h ~lo ~hi) blocks;
  Node.receive node h

(* One step of a random SACK stream, drawn from the sender's state: 1 ms
   of transmission, then an ACK.  The cumulative ACK moves up by 0-3
   segments (or names an old one); half the time the SACK blocks are the
   previous ACK's with the newest grown by a segment, a new block in
   front, or the oldest dropped — what a receiver sends across a hole —
   and otherwise up to three random, possibly overlapping blocks reaching
   below [una] and past [nxt].  The echoed transmission time sometimes
   lies behind retransmissions, so lost ones are requeued. *)
let ack_step rng engine ~highest (sb : Sender.scoreboard) prev =
  let window = Stdlib.max 1 (sb.Sender.nxt - sb.Sender.una) in
  let random_block () =
    let lo = Stdlib.max 0 (sb.Sender.una - 4 + Prng.int rng ~bound:(window + 8)) in
    (lo, lo + 1 + Prng.int rng ~bound:12)
  in
  let blocks =
    if prev <> [] && Prng.bool rng then begin
      match Prng.int rng ~bound:3, prev with
      | 0, (lo, hi) :: rest -> (lo, hi + 1) :: rest
      | 1, _ -> List.filteri (fun i _ -> i < Packet.max_sack_blocks) (random_block () :: prev)
      | _, _ -> List.filteri (fun i _ -> i < List.length prev - 1) prev
    end
    else List.init (Prng.int rng ~bound:(Packet.max_sack_blocks + 1)) (fun _ -> random_block ())
  in
  let ack_seq =
    if Prng.int rng ~bound:4 = 0 then Stdlib.max 0 (sb.Sender.una - Prng.int rng ~bound:3)
    else Stdlib.min highest (sb.Sender.una + Prng.int rng ~bound:4)
  in
  let tx_time = Engine.now engine -. (0.002 *. Prng.float rng) in
  (ack_seq, tx_time, blocks)

(* The [in_retx] flag of every outstanding seq names exactly the
   retransmission table's entries, and [n_retx] is its size. *)
let in_retx_agrees (sb : Sender.scoreboard) =
  let flagged = ref [] in
  Array.iteri
    (fun i f -> if f land Sender.in_retx_flag <> 0 then flagged := (sb.Sender.una + i) :: !flagged)
    sb.Sender.flags;
  let table = List.map fst sb.Sender.retx in
  List.sort Int.compare !flagged = List.sort Int.compare table
  && sb.Sender.n_retx = List.length table

(* Merging skips what the previous ACK's blocks already marked; the
   reference sender is handed the same stream but has every segment of
   every block marked first, as a merge without the skip does (the
   merge runs before anything else in the ACK touches the scoreboard).
   After every ACK, and across an RTO that clears the scoreboard, the
   two scoreboards agree: flags, counts, [highest_sacked] and the
   retransmission table in fold order. *)
let prop_merge_skip_matches_marking_every_segment =
  QCheck.Test.make ~name:"sack merge that skips merged blocks = marking every segment"
    ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 20 160))
    (fun (seed, steps) ->
      let rng = Prng.create ~seed in
      let rto_at = Prng.int rng ~bound:steps in
      let e1, n1, skipping = sink_sender () in
      let e2, n2, reference = sink_sender () in
      let prev = ref [] in
      let ok = ref true in
      for step = 0 to steps - 1 do
        if !ok then begin
          let pause = if step = rto_at then 5. else 0.001 in
          Engine.run ~until:(Engine.now e1 +. pause) e1;
          Engine.run ~until:(Engine.now e2 +. pause) e2;
          let sb = Sender.scoreboard skipping in
          let ack_seq, tx_time, blocks =
            ack_step rng e1 ~highest:(Sender.sent_segments skipping) sb !prev
          in
          prev := blocks;
          List.iter
            (fun (lo, hi) ->
              for seq = lo to hi - 1 do
                Sender.mark_sacked reference seq
              done)
            blocks;
          deliver_ack e1 n1 ~ack_seq ~tx_time blocks;
          deliver_ack e2 n2 ~ack_seq ~tx_time blocks;
          let a = Sender.scoreboard skipping and b = Sender.scoreboard reference in
          if not (a = b && in_retx_agrees a) then ok := false
        end
      done;
      !ok && Sender.timeouts skipping > 0 && Sender.timeouts skipping = Sender.timeouts reference)

(* Lossy transfers stepped one engine event at a time: after every event
   the scoreboard's [in_retx] flags name exactly the retransmission
   table's entries, and the transfer completes. *)
let prop_in_retx_flag_tracks_retx_table =
  QCheck.Test.make ~name:"scoreboard in_retx flag = retransmission table after every event"
    ~count:20
    QCheck.(pair (int_range 0 10_000) (int_range 2 20))
    (fun (seed, loss_pct) ->
      let f = sender_fixture ~total:200 () in
      Link.set_fault_injection f.dumbbell.Topology.bottleneck ~rng:(Prng.create ~seed)
        ~drop_probability:(float_of_int loss_pct /. 100.);
      Sender.start f.sender;
      let ok = ref true in
      while
        !ok
        && (not (Sender.completed f.sender))
        && Engine.now f.engine < lossy_horizon_s
        && Engine.step f.engine
      do
        if not (in_retx_agrees (Sender.scoreboard f.sender)) then ok := false
      done;
      !ok && Sender.completed f.sender)

let suite =
  [
    ("rto initial", `Quick, test_rto_initial);
    ("rto first sample", `Quick, test_rto_first_sample);
    ("rto converges", `Quick, test_rto_converges);
    ("rto backoff", `Quick, test_rto_backoff);
    ("rto min max", `Quick, test_rto_min_max);
    ("reno slow start then ca", `Quick, test_reno_slow_start_then_ca);
    ("reno loss halves", `Quick, test_reno_loss_halves);
    ("reno timeout resets", `Quick, test_reno_timeout_resets);
    ("reno raw halving (floor is the sender's)", `Quick, test_reno_raw_halving);
    ("weighted reno increase", `Quick, test_weighted_reno_increase);
    ("weighted reno decrease", `Quick, test_weighted_reno_gentle_decrease);
    ("weighted reno bad weight", `Quick, test_weighted_reno_rejects_bad_weight);
    ("cubic defaults match table 1", `Quick, test_cubic_defaults_match_table1);
    ("cubic slow start", `Quick, test_cubic_slow_start);
    ("cubic beta decrease", `Quick, test_cubic_beta_decrease);
    ("cubic concave/convex growth", `Quick, test_cubic_concave_convex_growth);
    ("cubic timeout", `Quick, test_cubic_timeout);
    ("cubic rejects bad beta", `Quick, test_cubic_rejects_bad_beta);
    ("cubic params to string", `Quick, test_cubic_params_to_string);
    ("vegas grows when queue empty", `Quick, test_vegas_grows_when_queue_empty);
    ("vegas shrinks when queue builds", `Quick, test_vegas_shrinks_when_queue_builds);
    ("vegas loss vs timeout", `Quick, test_vegas_loss_decrease_gentler_than_timeout);
    ("vegas validation", `Quick, test_vegas_validation);
    ("vegas keeps queue short", `Slow, test_vegas_keeps_queue_short_end_to_end);
    ("receiver in order", `Quick, test_receiver_in_order);
    ("receiver out of order sack", `Quick, test_receiver_out_of_order_sack);
    ("receiver duplicate segments", `Quick, test_receiver_duplicate_segments);
    ("receiver karn", `Quick, test_receiver_karn_no_echo_on_retransmit);
    QCheck_alcotest.to_alcotest prop_sack_ring_matches_list_model;
    ("sender completes clean path", `Quick, test_sender_completes_clean_path);
    ("sender throughput bounded", `Quick, test_sender_throughput_bounded_by_link);
    ("sender recovers from loss", `Quick, test_sender_recovers_from_injected_loss);
    ("sender recovers from severe loss", `Quick, test_sender_recovers_from_severe_loss);
    ("sender abort", `Quick, test_sender_abort_cancels);
    ("sender slow start growth", `Quick, test_sender_cwnd_grows_in_slow_start);
    ("sender timeout on blackout", `Quick, test_sender_timeout_on_blackout);
    ("ecn marks instead of drops", `Quick, test_ecn_marks_instead_of_drops);
    ("ecn once per rtt", `Quick, test_ecn_reacts_at_most_once_per_rtt);
    QCheck_alcotest.to_alcotest ~long:true prop_delivery_integrity;
    QCheck_alcotest.to_alcotest prop_sender_floors_buggy_controllers;
    QCheck_alcotest.to_alcotest prop_receiver_acks_describe_arrivals;
    ("sender recovers a hole wider than the scoreboard ring", `Quick, test_sender_recovers_wide_hole);
    ("cubic seeded trajectory is pinned", `Quick, test_cubic_seeded_trajectory);
    QCheck_alcotest.to_alcotest prop_run_list_matches_block_scan;
    QCheck_alcotest.to_alcotest prop_merge_skip_matches_marking_every_segment;
    QCheck_alcotest.to_alcotest prop_in_retx_flag_tracks_retx_table;
  ]
