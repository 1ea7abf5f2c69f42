(* Unit tests for the benchmark's own helpers:
     python3 perfbench/run.py --selftest *)

open Perfbench
module Cc = Phi_tcp.Cc
module Cc_algo = Phi.Cc_algo

(* {1 Histogram percentiles against a sorted reference} *)

let nearest_rank sorted p =
  let n = Array.length sorted in
  let rank = Stdlib.max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
  sorted.(rank - 1)

let check_percentiles name samples =
  let h = Hist.create () in
  Array.iter (Hist.record h) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  List.iter
    (fun p ->
      match Hist.percentile h p with
      | None -> Alcotest.fail "empty histogram"
      | Some got ->
        let exact = nearest_rank sorted p in
        let tolerance = exact / Hist.sub in
        if got.Hist.value < exact || got.Hist.value > exact + tolerance then
          Alcotest.failf "%s p%g: histogram %d, exact %d (tolerance %d)" name p got.Hist.value exact
            tolerance;
        let above = Array.fold_left (fun acc v -> if v > got.Hist.value then acc + 1 else acc) 0 samples in
        Alcotest.(check int) (Printf.sprintf "%s p%g above" name p) above got.Hist.above;
        Alcotest.(check int) (Printf.sprintf "%s p%g samples" name p) (Array.length samples)
          got.Hist.samples)
    [ 0.; 1.; 25.; 50.; 90.; 99.; 99.9; 100. ]

let test_hist_percentiles () =
  let rng = Random.State.make [| 7 |] in
  (* Latency-shaped: log-uniform from 1 ns to ~1 s. *)
  let log_uniform = Array.init 20_000 (fun _ -> int_of_float (Float.exp (Random.State.float rng 20.7))) in
  check_percentiles "log-uniform" log_uniform;
  (* Small values land in exact buckets. *)
  check_percentiles "small" (Array.init 1_000 (fun _ -> Random.State.int rng 128));
  (* Heavy ties. *)
  check_percentiles "ties" (Array.init 5_000 (fun i -> if i mod 10 = 0 then 1_000_000 else 4_000));
  check_percentiles "single" [| 123_456 |]

let test_hist_reportable () =
  let h = Hist.create () in
  Alcotest.(check bool) "empty" false (Hist.reportable (Hist.percentile h 99.));
  for _ = 1 to 991 do
    Hist.record h 1
  done;
  for _ = 1 to 9 do
    Hist.record h 2
  done;
  (* p99 is the 990th of 1000 samples, a 1; nine 2s lie above it. *)
  Alcotest.(check bool) "9 above" false (Hist.reportable (Hist.percentile h 99.));
  Hist.clear h;
  for _ = 1 to 990 do
    Hist.record h 1
  done;
  for _ = 1 to 10 do
    Hist.record h 2
  done;
  Alcotest.(check bool) "10 above" true (Hist.reportable (Hist.percentile h 99.));
  Hist.clear h;
  Alcotest.(check int) "cleared" 0 (Hist.count h)

(* {1 Span self time} *)

let test_span_self_time () =
  let s = Span.create () in
  let root = Span.add s "root" ~start:0 ~stop:100 in
  let a = Span.add s ~parent:root "a" ~start:10 ~stop:30 in
  let _b = Span.add s ~parent:root "b" ~start:20 ~stop:50 in
  let _c = Span.add s ~parent:root "c" ~start:60 ~stop:70 in
  (* Sticks out of its parent: only [90, 100] counts against it. *)
  let _d = Span.add s ~parent:root "d" ~start:90 ~stop:120 in
  let _a1 = Span.add s ~parent:a "a1" ~start:12 ~stop:18 in
  Span.charge s root 5;
  Span.charge s a 4;
  (* root: 100 - |[10,50] u [60,70] u [90,100]| - 5 = 100 - 60 - 5 *)
  Alcotest.(check int) "root self" 35 (Span.self_ns s root);
  (* a: 20 - 6 (a1) - 4 charged *)
  Alcotest.(check int) "a self" 10 (Span.self_ns s a);
  Alcotest.(check int) "leaf self" 6 (Span.self_ns s _a1);
  (* Unclaimed: root's own 35 and a's own 10; a1, b, c and d are leaves. *)
  Alcotest.(check int) "root attributed" 55 (Span.attributed_ns s root);
  Alcotest.(check int) "a attributed" 10 (Span.attributed_ns s a);
  Alcotest.(check int) "leaf attributed" 10 (Span.attributed_ns s _c);
  Alcotest.(check (float 1e-12)) "share of root" 0.55 (Span.attributed_share s "root");
  let other = Span.add s "other" ~start:200 ~stop:250 in
  Alcotest.(check int) "top level" 150 (Span.top_level_ns s);
  Alcotest.(check int) "no children" 50 (Span.self_ns s other);
  (* Growth past the initial capacity keeps earlier spans intact. *)
  for i = 0 to 199 do
    ignore (Span.add s ~parent:other "x" ~start:(200 + (i mod 50)) ~stop:(201 + (i mod 50)))
  done;
  Alcotest.(check int) "covered by many" 0 (Span.self_ns s other);
  Alcotest.(check int) "root unchanged" 35 (Span.self_ns s root)

(* {1 The controller wrapper} *)

let remy_table = lazy (Phi_remy.Compiled_table.compile (Phi_remy.Pretrained.remy ()))
let remy_phi_table = lazy (Phi_remy.Compiled_table.compile (Phi_remy.Pretrained.remy_phi ()))

let make_cc algo () =
  match algo with
  | Cc_algo.Cubic _ | Cc_algo.Reno _ | Cc_algo.Vegas -> Cc_algo.basic_builder ~ctx:Phi.Context.empty algo
  | Cc_algo.Remy -> Phi_remy.Remy_cc.make ~table:(Lazy.force remy_table) ~util:`None ()
  | Cc_algo.Remy_phi ->
    Phi_remy.Remy_cc.make ~table:(Lazy.force remy_phi_table) ~util:(`At_start (fun () -> 0.4)) ()

(* Drive a controller the way the sender does, including its floors
   after losses and timeouts, and log the state after every event. *)
let trajectory (cc : Cc.t) =
  let rng = Random.State.make [| 11 |] in
  let log = ref [] in
  let now = ref 0. in
  for _ = 1 to 3_000 do
    now := !now +. Random.State.float rng 0.01;
    let u = Random.State.int rng 100 in
    if u < 3 then begin
      cc.Cc.on_loss cc ~now:!now;
      cc.Cc.cwnd <- Float.max cc.Cc.cwnd Cc.min_cwnd;
      cc.Cc.ssthresh <- Float.max cc.Cc.ssthresh Cc.min_cwnd
    end
    else if u < 4 then begin
      cc.Cc.on_timeout cc ~now:!now;
      cc.Cc.cwnd <- Float.max cc.Cc.cwnd 1.
    end
    else begin
      let rtt = if u < 10 then Float.nan else 0.05 +. Random.State.float rng 0.2 in
      let sent_at = !now -. (if Float.is_nan rtt then 0.1 else rtt) in
      cc.Cc.on_ack cc ~now:!now ~rtt ~sent_at ~newly_acked:(1 + Random.State.int rng 3)
    end;
    log := (cc.Cc.cwnd, cc.Cc.ssthresh, cc.Cc.pacing_gap_s) :: !log
  done;
  List.rev !log

let test_wrapper_reproduces algo () =
  let bare = trajectory (make_cc algo ()) in
  let counters = Cc_wrap.counters () in
  let wrapped_cc = Cc_wrap.factory counters (make_cc algo) () in
  let wrapped = trajectory wrapped_cc in
  List.iteri
    (fun i ((c1, s1, g1), (c2, s2, g2)) ->
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      if not (same c1 c2 && same s1 s2 && same g1 g2) then
        Alcotest.failf "%s step %d: bare (%h, %h, %h) wrapped (%h, %h, %h)" (Cc_algo.name algo) i c1
          s1 g1 c2 s2 g2)
    (List.combine bare wrapped);
  Alcotest.(check int) "made" 1 counters.Cc_wrap.made;
  Alcotest.(check int) "events counted" 3_000
    (counters.Cc_wrap.acks + counters.Cc_wrap.losses + counters.Cc_wrap.timeouts);
  Alcotest.(check string) "name kept" wrapped_cc.Cc.name (make_cc algo ()).Cc.name

let () =
  Alcotest.run "perfbench"
    [
      ( "hist",
        [
          Alcotest.test_case "percentiles match sorted reference" `Quick test_hist_percentiles;
          Alcotest.test_case "p99 needs ten samples above" `Quick test_hist_reportable;
        ] );
      ( "span",
        [ Alcotest.test_case "self and attributed time of nested spans" `Quick test_span_self_time ]
      );
      ( "cc_wrap",
        List.map
          (fun algo ->
            Alcotest.test_case
              (Printf.sprintf "%s trajectory unchanged" (Cc_algo.name algo))
              `Quick (test_wrapper_reproduces algo))
          Cc_algo.all );
    ]
