(* Tests for phi_remy: memory signals, whisker geometry, rule tables,
   serialization, the Remy controller driving the shared Phi_tcp.Sender,
   and a smoke test of the trainer's evaluation loop. *)

module Engine = Phi_sim.Engine
module Topology = Phi_net.Topology
module Link = Phi_net.Link
module Prng = Phi_util.Prng
open Phi_remy

(* {2 Memory} *)

let test_memory_initial_state () =
  let m = Memory.create () in
  Alcotest.(check (float 0.)) "ack ewma" 0. (Memory.ack_ewma m);
  Alcotest.(check (float 0.)) "send ewma" 0. (Memory.send_ewma m);
  Alcotest.(check (float 0.)) "rtt ratio" 1. (Memory.rtt_ratio m);
  Alcotest.(check bool) "no min rtt" true (Memory.min_rtt m = None)

let test_memory_rtt_ratio () =
  let m = Memory.create () in
  Memory.on_ack m ~now:0.1 ~echo_sent_at:0.;  (* rtt 0.1 -> min *)
  Alcotest.(check (float 1e-9)) "ratio 1 at min" 1. (Memory.rtt_ratio m);
  Memory.on_ack m ~now:0.45 ~echo_sent_at:0.25;  (* rtt 0.2 *)
  Alcotest.(check (float 1e-9)) "ratio 2" 2. (Memory.rtt_ratio m);
  Alcotest.(check (option (float 1e-9))) "min rtt kept" (Some 0.1) (Memory.min_rtt m)

let test_memory_ewma_updates () =
  let m = Memory.create () in
  Memory.on_ack m ~now:1.0 ~echo_sent_at:0.9;
  (* First ack seeds the timestamps; EWMAs update from the second on. *)
  Memory.on_ack m ~now:1.1 ~echo_sent_at:0.95;
  Alcotest.(check bool) "ack ewma positive" true (Memory.ack_ewma m > 0.);
  Alcotest.(check bool) "send ewma positive" true (Memory.send_ewma m > 0.)

let test_memory_point_in_unit_cube () =
  let m = Memory.create () in
  Memory.on_ack m ~now:2. ~echo_sent_at:0.5;
  Memory.on_ack m ~now:5. ~echo_sent_at:1.;
  Memory.set_utilization m 0.7;
  List.iter
    (fun dims ->
      let p = Memory.to_point m ~dims in
      Alcotest.(check int) "dims" dims (Array.length p);
      Array.iter
        (fun x -> Alcotest.(check bool) "in [0,1]" true (x >= 0. && x <= 1.))
        p)
    [ Memory.dims_remy; Memory.dims_phi ]

let test_memory_utilization_clamped () =
  let m = Memory.create () in
  Memory.set_utilization m 1.5;
  Alcotest.(check (float 0.)) "clamped high" 1. (Memory.utilization m);
  Memory.set_utilization m (-0.5);
  Alcotest.(check (float 0.)) "clamped low" 0. (Memory.utilization m)

let test_memory_reset () =
  let m = Memory.create () in
  Memory.on_ack m ~now:1. ~echo_sent_at:0.5;
  Memory.set_utilization m 0.4;
  Memory.reset m;
  Alcotest.(check (float 0.)) "ratio reset" 1. (Memory.rtt_ratio m);
  (* Utilization survives reset: it is externally owned. *)
  Alcotest.(check (float 0.)) "util kept" 0.4 (Memory.utilization m)

(* {2 Whisker} *)

let test_whisker_apply_bounds () =
  let a = { Whisker.window_increment = 5.; window_multiple = 2.; intersend_s = 0.001 } in
  Alcotest.(check (float 0.)) "cap at 1024" 1024. (Whisker.apply a ~cwnd:1000.);
  let shrink = { Whisker.window_increment = -5.; window_multiple = 0.1; intersend_s = 0.001 } in
  Alcotest.(check (float 0.)) "floor at 1" 1. (Whisker.apply shrink ~cwnd:2.)

let test_whisker_clamp_action () =
  let wild = { Whisker.window_increment = 99.; window_multiple = 0.; intersend_s = 10. } in
  let c = Whisker.clamp_action wild in
  Alcotest.(check (float 0.)) "inc" 32. c.Whisker.window_increment;
  Alcotest.(check (float 0.)) "mult" 0.1 c.Whisker.window_multiple;
  Alcotest.(check (float 0.)) "isend" 0.5 c.Whisker.intersend_s

let test_whisker_create_rejects_non_finite () =
  Alcotest.check_raises "NaN window_increment"
    (Invalid_argument "Whisker.clamp_action: window_increment is not finite (nan)") (fun () ->
      ignore
        (Whisker.create (Whisker.root_box ~dims:2)
           { Whisker.default_action with Whisker.window_increment = Float.nan }))

let test_whisker_contains_boundaries () =
  let box = Whisker.root_box ~dims:2 in
  Alcotest.(check bool) "origin" true (Whisker.contains box [| 0.; 0. |]);
  Alcotest.(check bool) "interior" true (Whisker.contains box [| 0.5; 0.9 |]);
  Alcotest.(check bool) "upper face inclusive" true (Whisker.contains box [| 1.; 1. |]);
  let sub = { Whisker.lo = [| 0.; 0. |]; hi = [| 0.5; 0.5 |] } in
  Alcotest.(check bool) "internal face exclusive" false (Whisker.contains sub [| 0.5; 0.2 |])

let test_whisker_split_partitions () =
  let box = Whisker.root_box ~dims:3 in
  let children = Whisker.split_box box in
  Alcotest.(check int) "2^3 children" 8 (List.length children);
  (* Any interior point lands in exactly one child. *)
  let rng = Prng.create ~seed:2 in
  for _ = 1 to 200 do
    let p = Array.init 3 (fun _ -> Prng.float rng) in
    let hits = List.filter (fun c -> Whisker.contains c p) children in
    Alcotest.(check int) "exactly one child" 1 (List.length hits)
  done

let test_whisker_line_roundtrip () =
  let w =
    Whisker.create
      { Whisker.lo = [| 0.25; 0. |]; hi = [| 0.5; 1. |] }
      { Whisker.window_increment = -2.; window_multiple = 1.25; intersend_s = 0.0123 }
  in
  let w' = Whisker.of_line (Whisker.to_line w) in
  Alcotest.(check (array (float 1e-12))) "lo" w.Whisker.box.Whisker.lo w'.Whisker.box.Whisker.lo;
  Alcotest.(check (array (float 1e-12))) "hi" w.Whisker.box.Whisker.hi w'.Whisker.box.Whisker.hi;
  Alcotest.(check (float 1e-12)) "action" w.Whisker.action.Whisker.intersend_s
    w'.Whisker.action.Whisker.intersend_s

let test_whisker_of_line_rejects_garbage () =
  let raised =
    try ignore (Whisker.of_line "nonsense"); false with Whisker.Parse_error _ -> true
  in
  Alcotest.(check bool) "garbage rejected" true raised

(* Well-formed lines whose numbers no table can hold: every one must be
   a parse error, not a whisker that lookups clamp into or that acts
   with a NaN. *)
let test_whisker_of_line_rejects_bad_numbers () =
  List.iter
    (fun (what, line) ->
      let raised = try ignore (Whisker.of_line line); false with Whisker.Parse_error _ -> true in
      Alcotest.(check bool) what true raised)
    [
      ("missing action", "w|0,0|1,1");
      ("nan action", "w|0,0|1,1|nan;1;0.001");
      ("infinite action", "w|0,0|1,1|1;inf;0.001");
      ("nan box", "w|0,nan|1,1|1;1;0.001");
      ("infinite box", "w|0,0|1,infinity|1;1;0.001");
      ("box below 0", "w|-0.5,0|1,1|1;1;0.001");
      ("box above 1", "w|0,0|1.5,1|1;1;0.001");
      ("empty box", "w|0.5,0|0.5,1|1;1;0.001");
      ("inverted box", "w|0.75,0|0.25,1|1;1;0.001");
    ]

(* {2 Rule_table} *)

let test_table_lookup_pure () =
  let t = Rule_table.create ~dims:3 Whisker.default_action in
  Alcotest.(check int) "one whisker" 1 (Rule_table.size t);
  let w = Rule_table.lookup t [| 0.1; 0.2; 0.3 |] in
  let w' = Rule_table.lookup t [| 0.1; 0.2; 0.3 |] in
  Alcotest.(check bool) "same whisker, no side effects" true (w == w');
  Alcotest.(check int) "index agrees" 0 (Rule_table.lookup_index t [| 0.1; 0.2; 0.3 |]);
  Alcotest.(check int) "lookups leave the generation alone" 0 (Rule_table.generation t)

let test_table_split_preserves_partition () =
  let t = Rule_table.create ~dims:3 Whisker.default_action in
  let root = List.hd (Rule_table.whiskers t) in
  Rule_table.split t root;
  Alcotest.(check int) "8 children" 8 (Rule_table.size t);
  let child = Rule_table.lookup t [| 0.9; 0.9; 0.9 |] in
  Rule_table.split t child;
  Alcotest.(check int) "15 whiskers" 15 (Rule_table.size t);
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 500 do
    let p = Array.init 3 (fun _ -> Prng.float rng) in
    ignore (Rule_table.lookup t p) (* must not raise *)
  done

let test_table_generation_and_set_action () =
  let t = Rule_table.create ~dims:2 Whisker.default_action in
  Alcotest.(check int) "fresh table at generation 0" 0 (Rule_table.generation t);
  let root = List.hd (Rule_table.whiskers t) in
  Rule_table.split t root;
  Alcotest.(check int) "split bumps" 1 (Rule_table.generation t);
  let w = Rule_table.lookup t [| 0.9; 0.9 |] in
  Rule_table.split_axis t w ~axis:0;
  Alcotest.(check int) "split_axis bumps" 2 (Rule_table.generation t);
  let w = Rule_table.lookup t [| 0.1; 0.1 |] in
  Rule_table.set_action t w
    { Whisker.window_increment = 99.; window_multiple = 1.; intersend_s = 0.001 };
  Alcotest.(check int) "set_action bumps" 3 (Rule_table.generation t);
  (* set_action clamps like Whisker.create does. *)
  Alcotest.(check (float 0.)) "action clamped" 32. w.Whisker.action.Whisker.window_increment;
  let stranger = Whisker.create (Whisker.root_box ~dims:2) Whisker.default_action in
  let raised =
    try
      Rule_table.set_action t stranger Whisker.default_action;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "unknown whisker rejected" true raised

let test_set_action_rejects_non_finite () =
  let t = Rule_table.create ~dims:2 Whisker.default_action in
  let w = List.hd (Rule_table.whiskers t) in
  Alcotest.check_raises "NaN window_multiple"
    (Invalid_argument "Whisker.clamp_action: window_multiple is not finite (nan)") (fun () ->
      Rule_table.set_action t w { Whisker.default_action with Whisker.window_multiple = Float.nan });
  Alcotest.check_raises "infinite intersend_s"
    (Invalid_argument "Whisker.clamp_action: intersend_s is not finite (inf)") (fun () ->
      Rule_table.set_action t w
        { Whisker.default_action with Whisker.intersend_s = Float.infinity });
  Alcotest.(check bool) "action kept" true (w.Whisker.action = Whisker.default_action);
  Alcotest.(check int) "generation kept" 0 (Rule_table.generation t)

let test_table_serialize_roundtrip () =
  let t = Rule_table.create ~dims:4 Whisker.default_action in
  Rule_table.split t (List.hd (Rule_table.whiskers t));
  let t' = Rule_table.deserialize (Rule_table.serialize t) in
  Alcotest.(check int) "dims" 4 (Rule_table.dims t');
  Alcotest.(check int) "size" (Rule_table.size t) (Rule_table.size t');
  let rng = Prng.create ~seed:4 in
  for _ = 1 to 100 do
    let p = Array.init 4 (fun _ -> Prng.float rng) in
    let a = (Rule_table.lookup t p).Whisker.action in
    let b = (Rule_table.lookup t' p).Whisker.action in
    Alcotest.(check (float 0.)) "same action" a.Whisker.intersend_s b.Whisker.intersend_s
  done

let test_table_split_axis () =
  let t = Rule_table.create ~dims:4 Whisker.default_action in
  let root = List.hd (Rule_table.whiskers t) in
  Rule_table.split_axis t root ~axis:3;
  Alcotest.(check int) "two children" 2 (Rule_table.size t);
  let low = Rule_table.lookup t [| 0.2; 0.2; 0.2; 0.1 |] in
  let high = Rule_table.lookup t [| 0.2; 0.2; 0.2; 0.9 |] in
  Alcotest.(check bool) "distinct whiskers by utilization" true (low != high);
  (* Other axes are untouched: same whisker regardless of other coords. *)
  let low2 = Rule_table.lookup t [| 0.9; 0.9; 0.9; 0.1 |] in
  Alcotest.(check bool) "same low-util whisker" true (low == low2);
  let raised =
    try ignore (Rule_table.split_axis t low ~axis:7); false with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad axis rejected" true raised

let test_table_extrude () =
  let t = Rule_table.create ~dims:3 Whisker.default_action in
  Rule_table.split t (List.hd (Rule_table.whiskers t));
  let t4 = Rule_table.extrude t in
  Alcotest.(check int) "dims + 1" 4 (Rule_table.dims t4);
  Alcotest.(check int) "same whisker count" (Rule_table.size t) (Rule_table.size t4);
  (* Any utilization value matches the lifted whiskers. *)
  List.iter (fun u -> ignore (Rule_table.lookup t4 [| 0.2; 0.2; 0.2; u |])) [ 0.; 0.5; 1. ]

let test_pretrained_tables_load () =
  let remy = Pretrained.remy () in
  Alcotest.(check int) "remy dims" 3 (Rule_table.dims remy);
  let phi = Pretrained.remy_phi () in
  Alcotest.(check int) "phi dims" 4 (Rule_table.dims phi);
  ignore (Rule_table.lookup remy [| 0.; 0.; 0. |]);
  ignore (Rule_table.lookup phi [| 0.; 0.; 0.; 0.9 |])

let prop_partition_total =
  QCheck.Test.make ~name:"split tables cover every point exactly once" ~count:60
    QCheck.(pair (int_range 0 3) (int_range 0 10_000))
    (fun (splits, seed) ->
      let rng = Prng.create ~seed in
      let t = Rule_table.create ~dims:3 Whisker.default_action in
      for _ = 1 to splits do
        let ws = Rule_table.whiskers t in
        (match List.nth_opt ws (Prng.int rng ~bound:(List.length ws)) with
        | Some target -> Rule_table.split t target
        | None -> Alcotest.fail "empty whisker list")
      done;
      let ok = ref true in
      for _ = 1 to 100 do
        let p = Array.init 3 (fun _ -> Prng.float rng) in
        let hits =
          List.filter (fun w -> Whisker.contains w.Whisker.box p) (Rule_table.whiskers t)
        in
        if List.length hits <> 1 then ok := false
      done;
      !ok)

(* {2 Remy controller on the unified sender} *)

let run_remy_transfer ?(util = `None) ?(until = 300.) ?(drop = 0.) ~table ~total () =
  let engine = Engine.create () in
  let dumbbell = Topology.dumbbell engine { Topology.paper_spec with Topology.n = 1 } in
  if drop > 0. then
    Link.set_fault_injection dumbbell.Topology.bottleneck ~rng:(Prng.create ~seed:9)
      ~drop_probability:drop;
  let receiver =
    Phi_tcp.Receiver.create engine ~node:dumbbell.Topology.receivers.(0) ~flow:0 ~peer:0
  in
  let sender =
    Phi_tcp.Sender.create engine
      ~node:dumbbell.Topology.senders.(0)
      ~flow:0
      ~dst:(Topology.receiver_id dumbbell 0)
      ~cc:(Remy_cc.make ~table:(Compiled_table.compile table) ~util ())
      ~total_segments:total ()
  in
  Phi_tcp.Sender.start sender;
  Engine.run ~until engine;
  (sender, receiver, dumbbell)

let test_remy_cc_shape () =
  (* The Remy control law rides the shared transport as a controller:
     go-back-N recovery (no SACK fast retransmit) and the initial
     whisker's intersend as the pacing gap. *)
  let action = { Whisker.window_increment = 3.; window_multiple = 1.; intersend_s = 0.0123 } in
  let table = Rule_table.create ~dims:3 action in
  let cc = Remy_cc.make ~table:(Compiled_table.compile table) ~util:`None () in
  Alcotest.(check bool) "go-back-N recovery" true
    (match cc.Phi_tcp.Cc.recovery with Phi_tcp.Cc.Go_back_n -> true | Phi_tcp.Cc.Sack -> false);
  Alcotest.(check (float 1e-12)) "paced by the whisker" 0.0123 cc.Phi_tcp.Cc.pacing_gap_s;
  Alcotest.(check string) "named" "remy" cc.Phi_tcp.Cc.name

let test_remy_sender_completes () =
  let table = Rule_table.create ~dims:3 Whisker.default_action in
  let sender, receiver, _ = run_remy_transfer ~table ~total:200 () in
  Alcotest.(check bool) "completed" true (Phi_tcp.Sender.completed sender);
  Alcotest.(check int) "receiver got all" 200 (Phi_tcp.Receiver.segments_received receiver)

let test_remy_sender_pacing_limits_rate () =
  (* Huge window but 10 ms intersend: rate must stay near 100 pkt/s. *)
  let action = { Whisker.window_increment = 5.; window_multiple = 2.; intersend_s = 0.01 } in
  let table = Rule_table.create ~dims:3 action in
  let sender, _, _ = run_remy_transfer ~table ~total:300 () in
  let stats = Phi_tcp.Sender.stats sender in
  let rate =
    float_of_int stats.Phi_tcp.Flow.segments /. Phi_tcp.Flow.duration stats
  in
  Alcotest.(check bool) "paced around 100 pkt/s" true (rate > 60. && rate < 130.)

let test_remy_sender_recovers_from_loss () =
  let table = Rule_table.create ~dims:3 Whisker.default_action in
  let sender, receiver, _ =
    run_remy_transfer ~until:600. ~drop:0.05 ~table ~total:150 ()
  in
  Alcotest.(check bool) "completed under loss" true (Phi_tcp.Sender.completed sender);
  Alcotest.(check bool) "receiver consistent" true
    (Phi_tcp.Receiver.next_expected receiver = 150)

let test_remy_cc_dims_validation () =
  let table = Rule_table.create ~dims:3 Whisker.default_action in
  let raised =
    try
      ignore (Remy_cc.make ~table:(Compiled_table.compile table) ~util:(`Live (fun () -> 0.5)) ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "dims mismatch rejected" true raised

(* Hex-float captures of both evaluations (seed 1, 10 s), recorded
   while the trainer still ran its own dumbbell loop: mean objective,
   median objective, median throughput, median queueing delay,
   connections.  The default action ignores utilization, so the oracle
   run replays the same bits. *)
let golden_trainer_eval =
  "0x1.6b6f406f4164ep+0 0x1.766075e1674cap+0 0x1.3fdce4845dc1bp+19 0x1.94067bb093cp-11 60"

module Trainer = Phi_experiments.Trainer
module Scenario = Phi_experiments.Scenario

let eval_capture (r : Trainer.eval_result) =
  Printf.sprintf "%h %h %h %h %d" r.Trainer.objective r.Trainer.median_objective
    r.Trainer.median_throughput_bps r.Trainer.median_queueing_delay_s r.Trainer.connections

let test_trainer_evaluate_smoke () =
  let table = Rule_table.create ~dims:3 Whisker.default_action in
  let scenario = { Scenario.table3 with Scenario.duration_s = 10. } in
  let r = Trainer.evaluate ~table ~util:`None ~seeds:[ 1 ] [ scenario ] in
  Alcotest.(check bool) "connections ran" true (r.Trainer.connections > 0);
  Alcotest.(check bool) "objective finite" true (Float.is_finite r.Trainer.objective);
  Alcotest.(check string) "bit-exact replay" golden_trainer_eval (eval_capture r)

let test_trainer_ideal_uses_4dims () =
  let table = Rule_table.create ~dims:4 Whisker.default_action in
  let scenario = { Scenario.table3 with Scenario.duration_s = 10. } in
  let r = Trainer.evaluate ~table ~util:`Ideal ~seeds:[ 1 ] [ scenario ] in
  Alcotest.(check bool) "runs with oracle" true (r.Trainer.connections > 0);
  Alcotest.(check string) "bit-exact replay" golden_trainer_eval (eval_capture r)

(* The point a memory writes, bit for bit. *)
let written_point m ~dims =
  let out = Float.Array.make dims Float.nan in
  Memory.write_point m ~dims out;
  List.init dims (fun i -> Printf.sprintf "%h" (Float.Array.get out i))

(* After [reset], a memory writes what a fresh one writes, before and
   after the same ACKs: the reset also re-arms the no-ACK-yet state. *)
let test_memory_reset_matches_fresh () =
  let used = Memory.create () and fresh = Memory.create () in
  List.iter
    (fun (now, echo_sent_at) -> Memory.on_ack used ~now ~echo_sent_at)
    [ (1., 0.8); (1.3, 0.9); (1.35, 1.2); (2., 1.6) ];
  Memory.set_utilization used 0.6;
  Memory.set_utilization fresh 0.6;
  Memory.reset used;
  let check what =
    Alcotest.(check (list string)) what
      (written_point fresh ~dims:Memory.dims_phi)
      (written_point used ~dims:Memory.dims_phi)
  in
  check "after reset";
  List.iter
    (fun (now, echo_sent_at) ->
      Memory.on_ack used ~now ~echo_sent_at;
      Memory.on_ack fresh ~now ~echo_sent_at;
      check (Printf.sprintf "after the ack at %g" now))
    [ (3., 2.75); (3.2, 2.8) ]

(* The first ACK only seeds the timestamps, fresh or after a reset; the
   second one moves both EWMAs. *)
let test_memory_first_ack_leaves_ewmas () =
  let m = Memory.create () in
  let first_ack what =
    Memory.on_ack m ~now:5. ~echo_sent_at:4.8;
    Alcotest.(check (float 0.)) (what ^ ": ack ewma") 0. (Memory.ack_ewma m);
    Alcotest.(check (float 0.)) (what ^ ": send ewma") 0. (Memory.send_ewma m);
    Memory.on_ack m ~now:5.5 ~echo_sent_at:5.;
    Alcotest.(check (float 1e-12)) (what ^ ": ack ewma moves") (0.5 /. 8.) (Memory.ack_ewma m);
    Alcotest.(check (float 1e-12)) (what ^ ": send ewma moves") (0.2 /. 8.) (Memory.send_ewma m)
  in
  first_ack "fresh";
  Memory.reset m;
  first_ack "after reset"

let suite =
  [
    ("memory initial state", `Quick, test_memory_initial_state);
    ("memory rtt ratio", `Quick, test_memory_rtt_ratio);
    ("memory ewma updates", `Quick, test_memory_ewma_updates);
    ("memory point in unit cube", `Quick, test_memory_point_in_unit_cube);
    ("memory utilization clamped", `Quick, test_memory_utilization_clamped);
    ("memory reset", `Quick, test_memory_reset);
    ("whisker apply bounds", `Quick, test_whisker_apply_bounds);
    ("whisker clamp action", `Quick, test_whisker_clamp_action);
    ("whisker contains boundaries", `Quick, test_whisker_contains_boundaries);
    ("whisker split partitions", `Quick, test_whisker_split_partitions);
    ("whisker line roundtrip", `Quick, test_whisker_line_roundtrip);
    ("whisker rejects garbage", `Quick, test_whisker_of_line_rejects_garbage);
    ("table lookup pure", `Quick, test_table_lookup_pure);
    ("table split partition", `Quick, test_table_split_preserves_partition);
    ("table generation and set_action", `Quick, test_table_generation_and_set_action);
    ("table serialize roundtrip", `Quick, test_table_serialize_roundtrip);
    ("table split axis", `Quick, test_table_split_axis);
    ("table extrude", `Quick, test_table_extrude);
    ("pretrained tables load", `Quick, test_pretrained_tables_load);
    QCheck_alcotest.to_alcotest prop_partition_total;
    ("remy cc shape", `Quick, test_remy_cc_shape);
    ("remy sender completes", `Quick, test_remy_sender_completes);
    ("remy sender pacing", `Quick, test_remy_sender_pacing_limits_rate);
    ("remy sender loss recovery", `Quick, test_remy_sender_recovers_from_loss);
    ("remy cc dims validation", `Quick, test_remy_cc_dims_validation);
    ("trainer evaluate smoke", `Slow, test_trainer_evaluate_smoke);
    ("trainer ideal 4 dims", `Slow, test_trainer_ideal_uses_4dims);
    ("whisker rejects bad numbers", `Quick, test_whisker_of_line_rejects_bad_numbers);
    ("whisker create rejects non-finite actions", `Quick, test_whisker_create_rejects_non_finite);
    ("set_action rejects non-finite actions", `Quick, test_set_action_rejects_non_finite);
    ("memory reset writes a fresh point", `Quick, test_memory_reset_matches_fresh);
    ("memory first ack leaves the ewmas", `Quick, test_memory_first_ack_leaves_ewmas);
  ]
