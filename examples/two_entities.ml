(* Independent per-entity deployment (Section 3.1).

   Even if data sensitivities stop the "five computers" from sharing with
   each other, each can deploy Phi over its own servers.  Here two
   entities split the paper dumbbell's eight senders.  Entity A runs a
   context server over its four senders; entity B's four senders stay on
   default Cubic.  Entity A's coordination is purely internal — no
   information crosses the entity boundary — yet its connections do
   better, and the control run shows what full (both-entity) deployment
   would add.

   Run with: dune exec examples/two_entities.exe *)

module Topology = Phi_net.Topology
module Scenario = Phi_experiments.Scenario
module Cc_select = Phi_experiments.Cc_select
module Flow = Phi_tcp.Flow
module Stats = Phi_util.Stats

let group_stats records =
  let thr =
    let bits, on_time =
      List.fold_left
        (fun (b, t) (r : Flow.conn_stats) ->
          (b +. float_of_int (r.Flow.bytes * 8), t +. Flow.duration r))
        (0., 0.) records
    in
    if on_time > 0. then bits /. on_time else 0.
  in
  let qdelay =
    match
      List.filter_map
        (fun r ->
          let q = Flow.queueing_delay r in
          if Float.is_finite q && q >= 0. then Some q else None)
        records
    with
    | [] -> 0.
    | l -> Stats.mean (Array.of_list l)
  in
  (thr, qdelay, List.length records)

let describe label records =
  let thr, qdelay, conns = group_stats records in
  Printf.printf "  %-24s %5.2f Mbps | %6.1f ms excess rtt | %d conns\n" label (thr /. 1e6)
    (1000. *. qdelay) conns

(* Run the shared dumbbell with entity A (senders 0-3) optionally running
   Phi and entity B (senders 4-7) always on defaults. *)
let run ~a_uses_phi =
  let config =
    { Scenario.high_utilization with Scenario.duration_s = 90.; Scenario.seed = 5 }
  in
  let result =
    if a_uses_phi then
      let w =
        Cc_select.wire (Cc_select.create ())
          ~capacity_bps:config.Scenario.spec.Topology.bottleneck_bw_bps ~path:"entity-a"
          (Cc_select.Policy (Phi.Policy.create ()))
      in
      Scenario.run
        ~observe:(fun engine _ -> w.Cc_select.attach engine)
        ~cc_factory:(fun index ->
          if index < 4 then w.Cc_select.cc_factory index
          else fun () -> Phi_tcp.Cubic.make Phi_tcp.Cubic.default_params)
        ~on_conn_end:(fun stats ->
          if stats.Flow.source_index < 4 then w.Cc_select.on_conn_end stats)
        config
    else Scenario.run config
  in
  let a, b = List.partition (fun (r : Flow.conn_stats) -> r.Flow.source_index < 4) result.Scenario.records in
  (a, b)

let () =
  print_endline "baseline: both entities on default Cubic";
  let a0, b0 = run ~a_uses_phi:false in
  describe "entity A (default)" a0;
  describe "entity B (default)" b0;
  print_endline "\nentity A deploys Phi internally (B unchanged, no cross-entity sharing):";
  let a1, b1 = run ~a_uses_phi:true in
  describe "entity A (phi)" a1;
  describe "entity B (default)" b1;
  let thr (rs : Flow.conn_stats list) =
    let t, _, _ = group_stats rs in
    t
  in
  Printf.printf
    "\nentity A gained %.0f%% throughput from purely internal coordination\n"
    (100. *. ((thr a1 /. Float.max 1. (thr a0)) -. 1.));
  Printf.printf "entity B moved by %.0f%% (no cooperation required from it)\n"
    (100. *. ((thr b1 /. Float.max 1. (thr b0)) -. 1.));
  Sanitize.check ()
