(* Tests for the PHI_SANITIZE invariant sanitizer: each hook is driven
   with deliberately broken input and must record the advertised rule
   name; a healthy end-to-end transfer must record nothing. *)

module Engine = Phi_sim.Engine
module Invariant = Phi_sim.Invariant
module Topology = Phi_net.Topology
module Packet = Phi_net.Packet
open Phi_tcp

let rules_of violations = List.map (fun v -> v.Invariant.rule) violations

let check_rules msg expected violations =
  Alcotest.(check (list string)) msg expected (rules_of violations)

(* {2 Engine scheduling anomalies} *)

let test_negative_delay_recorded () =
  let fired_at = ref nan in
  let (), vs =
    Invariant.with_capture (fun () ->
        let engine = Engine.create () in
        ignore (Engine.schedule_after engine ~delay:1. (fun () -> ()));
        Engine.run engine ~until:5.;
        ignore
          (Engine.schedule_after engine ~delay:(-0.5) (fun () ->
               fired_at := Engine.now engine));
        Engine.run engine)
  in
  check_rules "rule" [ "negative-delay" ] vs;
  (* The delay is clamped to zero: the event fires at the clock, not in
     the past. *)
  Alcotest.(check (float 1e-9)) "clamped to now" 5. !fired_at

let test_nonfinite_time_recorded () =
  let (), vs =
    Invariant.with_capture (fun () ->
        let engine = Engine.create () in
        ignore (Engine.schedule_at engine ~time:nan (fun () -> ()));
        Engine.run engine)
  in
  check_rules "rule" [ "non-finite-time" ] vs

(* Armed, a non-finite delay is recorded and clamped to 0 on all three
   relative entry points, so the clock stays finite. *)
let test_nonfinite_delay_recorded () =
  let fired_at = ref [] in
  let (), vs =
    Invariant.with_capture (fun () ->
        let engine = Engine.create () in
        let stamp () = fired_at := Engine.now engine :: !fired_at in
        ignore (Engine.schedule_after engine ~delay:1. ignore);
        Engine.run engine;
        ignore (Engine.schedule_after engine ~delay:nan stamp);
        Engine.schedule_port_after engine ~delay:infinity (Engine.port engine stamp);
        ignore (Engine.rearm_after engine Engine.null ~delay:nan stamp);
        Engine.run engine)
  in
  check_rules "rule" [ "non-finite-time"; "non-finite-time"; "non-finite-time" ] vs;
  Alcotest.(check (list (float 0.))) "clamped to now" [ 1.; 1.; 1. ] !fired_at

let test_time_in_past_recorded () =
  let (), vs =
    Invariant.with_capture (fun () ->
        let engine = Engine.create () in
        ignore (Engine.schedule_after engine ~delay:2. (fun () -> ()));
        Engine.run engine;
        ignore (Engine.schedule_at engine ~time:1. (fun () -> ()));
        Engine.run engine)
  in
  check_rules "rule" [ "time-in-past" ] vs

(* A port scheduled earlier than its pending event breaks its FIFO: the
   time is clamped to that event's, so the port still fires in order. *)
let test_port_out_of_order_recorded () =
  let fired_at = ref [] in
  let (), vs =
    Invariant.with_capture (fun () ->
        let engine = Engine.create () in
        let p = Engine.port engine (fun () -> fired_at := Engine.now engine :: !fired_at) in
        Engine.schedule_port_at engine ~time:2. p;
        Engine.schedule_port_at engine ~time:1. p;
        Engine.run engine)
  in
  check_rules "rule" [ "port-fifo" ] vs;
  Alcotest.(check (list (float 0.))) "clamped to the pending event" [ 2.; 2. ] !fired_at

(* {2 Context-server metric sanitization} *)

let server () =
  let engine = Engine.create () in
  (engine, Phi.Context_server.create engine ~capacity_bps:1e7 ())

let test_nan_metric_recorded () =
  let (), vs =
    Invariant.with_capture (fun () ->
        let _engine, srv = server () in
        Phi.Context_server.report srv ~path:"p" ~bytes:1000 ~duration_s:1. ~min_rtt:nan
          ~mean_rtt:0.05 ~retransmitted:0 ~segments:10)
  in
  check_rules "mixed NaN rtt pair" [ "metric-finite" ] vs

let test_both_nan_rtt_is_clean () =
  let (), vs =
    Invariant.with_capture (fun () ->
        let _engine, srv = server () in
        (* Both RTTs NaN is the legitimate "no samples" sentinel. *)
        Phi.Context_server.report srv ~path:"p" ~bytes:1000 ~duration_s:1. ~min_rtt:nan
          ~mean_rtt:nan ~retransmitted:0 ~segments:10)
  in
  check_rules "no violation" [] vs

let test_negative_bytes_recorded () =
  let (), vs =
    Invariant.with_capture (fun () ->
        let _engine, srv = server () in
        Phi.Context_server.report srv ~path:"p" ~bytes:(-1) ~duration_s:1. ~min_rtt:0.1
          ~mean_rtt:0.12 ~retransmitted:0 ~segments:10)
  in
  check_rules "negative bytes" [ "metric-range" ] vs

(* {2 Connection-stats sanitization} *)

let test_flow_sanitize_mean_below_min () =
  let stats =
    {
      Flow.flow = 7;
      source_index = 0;
      started_at = 0.;
      finished_at = 1.;
      bytes = 1000;
      segments = 10;
      retransmitted_segments = 0;
      timeouts = 0;
      rtt_samples = 5;
      min_rtt = 0.2;
      mean_rtt = 0.1;
    }
  in
  let (), vs = Invariant.with_capture (fun () -> Flow.sanitize stats) in
  check_rules "mean below min" [ "metric-range" ] vs

let test_flow_sanitize_negative_counter () =
  let stats =
    {
      Flow.flow = 7;
      source_index = 0;
      started_at = 1.;
      finished_at = 0.5;
      bytes = -1;
      segments = 10;
      retransmitted_segments = 0;
      timeouts = 0;
      rtt_samples = 0;
      min_rtt = nan;
      mean_rtt = nan;
    }
  in
  let (), vs = Invariant.with_capture (fun () -> Flow.sanitize stats) in
  check_rules "finished before start + negative bytes" [ "conn-stats"; "conn-stats" ] vs

(* {2 Congestion-window bound} *)

let cwnd_fixture () =
  let engine = Engine.create () in
  let dumbbell = Topology.dumbbell engine { Topology.paper_spec with Topology.n = 1 } in
  let _receiver =
    Receiver.create engine ~node:dumbbell.Topology.receivers.(0) ~flow:0 ~peer:0
  in
  let cc = Cubic.make Cubic.default_params in
  let sender =
    Sender.create engine
      ~node:dumbbell.Topology.senders.(0)
      ~flow:0
      ~dst:(Topology.receiver_id dumbbell 0)
      ~cc ~total_segments:50 ()
  in
  (engine, cc, sender)

let test_cwnd_nan_recorded () =
  let (), vs =
    Invariant.with_capture (fun () ->
        let _engine, cc, sender = cwnd_fixture () in
        cc.Cc.cwnd <- nan;
        Sender.start sender)
  in
  Alcotest.(check bool) "cwnd-bound recorded" true (List.mem "cwnd-bound" (rules_of vs))

let test_cwnd_above_bound_recorded () =
  let (), vs =
    Invariant.with_capture (fun () ->
        let _engine, cc, sender = cwnd_fixture () in
        Sender.set_cwnd_bound sender 8.;
        cc.Cc.cwnd <- 50.;
        Sender.start sender)
  in
  Alcotest.(check bool) "cwnd-bound recorded" true (List.mem "cwnd-bound" (rules_of vs))

let test_cwnd_bound_rejects_sub_packet () =
  let _engine, _cc, sender = cwnd_fixture () in
  let raised =
    try
      Sender.set_cwnd_bound sender 0.5;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bound < 1 rejected" true raised

(* {2 Packet-pool generation stamps} *)

let test_packet_double_release_recorded () =
  let in_use, vs =
    Invariant.with_capture (fun () ->
        let pool = Packet.create_pool () in
        let h = Packet.acquire_data pool ~flow:0 ~src:0 ~dst:1 ~seq:3 ~now:0. ~retransmit:false in
        Packet.release pool h;
        (* Armed, the second release is recorded rather than raised so the
           simulation can keep running under PHI_SANITIZE=1. *)
        Packet.release pool h;
        Packet.in_use pool)
  in
  check_rules "double release recorded" [ "packet-double-release" ] vs;
  Alcotest.(check int) "free list not corrupted" 0 in_use

let test_packet_stale_handle_recorded () =
  let (), vs =
    Invariant.with_capture (fun () ->
        let pool = Packet.create_pool () in
        let h = Packet.acquire_data pool ~flow:0 ~src:0 ~dst:1 ~seq:3 ~now:0. ~retransmit:false in
        Packet.release pool h;
        (* The cell's generation was bumped on release, so any accessor
           through the old handle trips the stamp check. *)
        ignore (Packet.seq pool h))
  in
  check_rules "stale access recorded" [ "packet-stale-handle" ] vs

let test_packet_recycled_handle_is_clean () =
  let (), vs =
    Invariant.with_capture (fun () ->
        let pool = Packet.create_pool () in
        let a = Packet.acquire_data pool ~flow:0 ~src:0 ~dst:1 ~seq:1 ~now:0. ~retransmit:false in
        Packet.release pool a;
        (* Re-acquiring the same cell mints a fresh generation: accesses
           through the new handle are legitimate and record nothing. *)
        let b = Packet.acquire_data pool ~flow:0 ~src:0 ~dst:1 ~seq:2 ~now:0. ~retransmit:false in
        Alcotest.(check int) "cell reinitialized" 2 (Packet.seq pool b);
        Packet.release pool b)
  in
  check_rules "recycled handle is clean" [] vs

(* {2 Healthy runs stay clean} *)

let test_healthy_transfer_records_nothing () =
  let completed, vs =
    Invariant.with_capture (fun () ->
        let engine, _cc, sender = cwnd_fixture () in
        Sender.start sender;
        Engine.run engine;
        Sender.completed sender)
  in
  Alcotest.(check bool) "transfer completed" true completed;
  check_rules "no violations on healthy run" [] vs

(* {2 Accumulator mechanics} *)

let test_with_capture_isolates_and_restores () =
  let before_enabled = Invariant.enabled () in
  let before_count = Invariant.count () in
  let (), vs =
    Invariant.with_capture (fun () ->
        Invariant.record ~rule:"test-rule" ~time:1. "inside capture")
  in
  check_rules "captured" [ "test-rule" ] vs;
  Alcotest.(check bool) "enabled restored" before_enabled (Invariant.enabled ());
  Alcotest.(check int) "outer accumulator untouched" before_count (Invariant.count ())

let test_report_lists_rules () =
  let report, vs =
    Invariant.with_capture (fun () ->
        Invariant.record ~rule:"test-rule" ~time:2.5 "something broke";
        Invariant.report ())
  in
  check_rules "one violation" [ "test-rule" ] vs;
  let contains ~needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    n > 0 && go 0
  in
  Alcotest.(check bool) "report names the rule" true (contains ~needle:"test-rule" report)

(* Pool jobs may run armed, so the recorder must count exactly when
   several domains record at once. *)
let test_record_across_domains () =
  let count, vs =
    Invariant.with_capture (fun () ->
        let worker d () =
          for i = 1 to 500 do
            Invariant.record ~rule:"test-rule" ~time:(float_of_int i) (string_of_int d)
          done
        in
        List.iter Domain.join (List.init 4 (fun d -> Domain.spawn (worker d)));
        Invariant.count ())
  in
  Alcotest.(check int) "every violation counted" 2000 count;
  Alcotest.(check int) "kept prefix capped" 1000 (List.length vs)

let test_disabled_record_is_noop () =
  let prev = Invariant.enabled () in
  Invariant.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Invariant.set_enabled prev)
    (fun () ->
      let before = Invariant.count () in
      Invariant.record ~rule:"test-rule" ~time:0. "should be dropped";
      Alcotest.(check int) "nothing recorded" before (Invariant.count ()))

let suite =
  [
    Alcotest.test_case "negative delay recorded and clamped" `Quick
      test_negative_delay_recorded;
    Alcotest.test_case "non-finite time recorded" `Quick test_nonfinite_time_recorded;
    Alcotest.test_case "non-finite delay recorded and clamped" `Quick
      test_nonfinite_delay_recorded;
    Alcotest.test_case "time in past recorded" `Quick test_time_in_past_recorded;
    Alcotest.test_case "port out of order recorded" `Quick test_port_out_of_order_recorded;
    Alcotest.test_case "NaN metric recorded" `Quick test_nan_metric_recorded;
    Alcotest.test_case "both-NaN rtt pair is clean" `Quick test_both_nan_rtt_is_clean;
    Alcotest.test_case "negative bytes recorded" `Quick test_negative_bytes_recorded;
    Alcotest.test_case "flow stats: mean rtt below min" `Quick
      test_flow_sanitize_mean_below_min;
    Alcotest.test_case "flow stats: negative counters" `Quick
      test_flow_sanitize_negative_counter;
    Alcotest.test_case "NaN cwnd recorded" `Quick test_cwnd_nan_recorded;
    Alcotest.test_case "cwnd above bound recorded" `Quick test_cwnd_above_bound_recorded;
    Alcotest.test_case "sub-packet bound rejected" `Quick test_cwnd_bound_rejects_sub_packet;
    Alcotest.test_case "packet double release recorded" `Quick
      test_packet_double_release_recorded;
    Alcotest.test_case "packet stale handle recorded" `Quick
      test_packet_stale_handle_recorded;
    Alcotest.test_case "recycled packet handle is clean" `Quick
      test_packet_recycled_handle_is_clean;
    Alcotest.test_case "healthy transfer records nothing" `Quick
      test_healthy_transfer_records_nothing;
    Alcotest.test_case "with_capture isolates and restores" `Quick
      test_with_capture_isolates_and_restores;
    Alcotest.test_case "report names the rule" `Quick test_report_lists_rules;
    Alcotest.test_case "record counts exactly across domains" `Quick test_record_across_domains;
    Alcotest.test_case "record is a no-op when disabled" `Quick test_disabled_record_is_noop;
  ]
