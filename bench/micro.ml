(* The [micro] experiment of bench/main.exe ([--only micro] runs it
   alone): event-core, packet-path and decision-plane microbenchmarks.

   - events/s: a timer-churn workload (65536 outstanding
     self-rescheduling chains, one cancelled bystander per 8 events)
     run against [Phi_sim.Engine], both through the closure API and
     through the closure-free port API.

   - packets/s: the link pipeline under saturation — a closed loop of
     packets circulating through one 1 Gbps link, and the paper dumbbell
     at ~99% utilization with 8 persistent Cubic flows (data packets
     counted; ACKs roughly double the true event rate).

   Both families also report an allocation profile: [Gc.minor_words]
   deltas around the port-churn, link-loop, dumbbell and WAN runs give
   minor words per event, per link-loop packet, per delivered dumbbell
   data packet and per delivered WAN bottleneck packet (the regression
   gate [phi_json_check] enforces a committed budget on the last three:
   the bare link, the whole Cubic packet path, and remy-phi's whisker
   lookups with link flaps and the context server's lookup and report
   per connection), and the link-loop packet pool reports its
   high-water mark.  The WAN run is the composition perfbench's
   [wan_remyphi_flap] workload runs: remy-phi on the WAN mesh under
   [Dynamics.default_flap], wired by [Cc_select.wire].

   - decisions/s: the compiled decision plane — per-ack whisker lookup
     (interpreted Rule_table scan against the flat Compiled_table) and
     per-connection choice of the swarm's fleet policy (interpreted
     Policy.choice_for against the flat 64-entry Policy.Compiled) on
     identical pregenerated inputs, with a Gc.minor_words delta around the
     compiled whisker loop (the gate is ~0 words/lookup).

   [run] returns the report's "micro", "alloc" and "decision"
   sections. *)

module Engine = Phi_sim.Engine
module Link = Phi_net.Link
module Packet = Phi_net.Packet
module Topology = Phi_net.Topology
module Scenario = Phi_experiments.Scenario
module Dynamics = Phi_experiments.Dynamics
module Cc_select = Phi_experiments.Cc_select
module Swarm = Phi_experiments.Swarm
module Json = Phi_util.Json
module Pool = Phi_runner.Pool
module Prng = Phi_util.Prng
module Rule_table = Phi_remy.Rule_table
module Compiled_table = Phi_remy.Compiled_table
module Context = Phi.Context
module Policy = Phi.Policy
module Cc_algo = Phi.Cc_algo

(* {2 Harness} *)

let repetitions = 3

(* Wall seconds of [f ()] on CLOCK_MONOTONIC (bechamel's clock_gettime
   stub) — every bench timing goes through here. *)
let timed f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9, r)

let rate n wall = if wall > 0. then float_of_int n /. wall else 0.

(* {2 events/s: timer churn}

   65536 outstanding chains; every fired event reschedules itself 1 s
   out, and every 8th event also schedules a bystander and cancels it —
   the cancel path, whose dead entry stays in the heap until its time
   comes.  (The sender's RTO does not take this path: it is re-armed in
   place with [Engine.rearm_after].)  The outstanding-event count matches a
   very busy many-flow simulation (tens of thousands of flows each
   holding a timer or two), so in the closure variant the heap is
   deep. *)

let churn_closures chains total () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec handler () =
    incr count;
    if !count land 7 = 0 then
      Engine.cancel e (Engine.schedule_after e ~delay:0.5 ignore);
    if !count < total then ignore (Engine.schedule_after e ~delay:1. handler)
  in
  for _ = 1 to chains do
    ignore (Engine.schedule_after e ~delay:1. handler)
  done;
  Engine.run e

(* The same workload with the recurring timer as a {!Engine.port} —
   registered once, rescheduled by reference — while the cancelled
   bystanders still go through the closure API (ports are not
   cancellable).  This is exactly how the real code divides the work:
   links reschedule ports, TCP timers are cancellable closures.  Both
   variants perform the identical event sequence, so the rates are
   directly comparable — but not the heaps: every chain reschedules one
   port 1 s out, in nondecreasing time, so the 65536 chains wait in
   that port's FIFO behind a single heap entry, and the heap holds only
   it and the bystanders' dead entries.  The port variant measures the
   FIFO path, not a deep heap. *)
let churn_ports chains total () =
  let e = Engine.create () in
  let count = ref 0 in
  let p = ref Engine.null_port in
  p :=
    Engine.port e (fun _ ->
        incr count;
        if !count land 7 = 0 then
          Engine.cancel e (Engine.schedule_after e ~delay:0.5 ignore);
        if !count < total then Engine.schedule_port_after e ~delay:1. !p 0);
  for _ = 1 to chains do
    Engine.schedule_port_after e ~delay:1. !p 0
  done;
  Engine.run e

(* {2 packets/s: saturated link pipeline} *)

let link_loop n () =
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = Link.create engine pool ~bandwidth_bps:1e9 ~delay_s:1e-4 ~capacity_pkts:128 in
  let delivered = ref 0 in
  Link.set_receiver link (fun pkt ->
      incr delivered;
      (* The receiver owns the handle on delivery; the closed loop hands
         it straight back to the link, so 32 slab cells serve the whole
         run.  Once the quota is met the stragglers go back to the free
         list. *)
      if !delivered < n then Link.send link pkt else Packet.release pool pkt);
  for i = 0 to 31 do
    Link.send link
      (Packet.acquire_data pool ~flow:0 ~src:0 ~dst:1 ~seq:i ~now:0. ~retransmit:false)
  done;
  Engine.run engine;
  (!delivered, Packet.high_water pool)

let dumbbell_packets duration_s () =
  let r =
    Scenario.run_persistent ~n_flows:8 ~duration_s ~spec:Topology.paper_spec ~seed:1 ()
  in
  List.fold_left
    (fun acc (s : Phi_tcp.Flow.conn_stats) -> acc + (s.Phi_tcp.Flow.bytes / Packet.mss))
    0 r.Scenario.records

(* Delivered bottleneck packets of one remy-phi WAN cell under link
   flaps; [select] holds the compiled tables, built outside the
   measurement. *)
let wan_remyphi_packets select duration_s () =
  let zoo = Topology.Zoo.wan () in
  let w =
    Cc_select.wire select ~capacity_bps:zoo.Topology.Zoo.bottleneck_bw_bps
      ~path:zoo.Topology.Zoo.name (Cc_select.Algorithm Cc_algo.Remy_phi)
  in
  let links = ref [||] in
  let observe engine built =
    w.Cc_select.attach engine;
    links := Array.map (Topology.link_of built) zoo.Topology.Zoo.bottlenecks
  in
  ignore
    (Scenario.run_zoo_cell ~cc_factory:w.Cc_select.cc_factory ~dynamics:Dynamics.default_flap
       ~duration_s ~seed:1 ~on_conn_end:w.Cc_select.on_conn_end ~observe zoo
      : Scenario.result);
  Array.fold_left (fun acc l -> acc + Link.packets_delivered l) 0 !links

(* {2 decisions/s: the compiled decision plane}

   The pretrained Phi table with every whisker split once more — the
   few-hundred-rule size a converged Remy run actually carries, where
   the interpreted scan's O(whiskers) cost is real.  Points and
   contexts are pregenerated (both float-array and floatarray forms, so
   no conversion is timed); both variants fold the returned index into
   a sink, which doubles as an equivalence check across the two
   lookups. *)

let decision_table () =
  let table = Phi_remy.Pretrained.remy_phi () in
  List.iter (fun w -> Rule_table.split table w) (Rule_table.whiskers table);
  table

let decision_points dims n =
  let rng = Prng.create ~seed:11 in
  Array.init n (fun _ ->
      let p = Float.Array.make dims 0. in
      for a = 0 to dims - 1 do
        Float.Array.set p a (Prng.float rng)
      done;
      p)

let boxed_points = Array.map (fun p -> Array.init (Float.Array.length p) (Float.Array.get p))

let interpreted_lookups table points rounds () =
  let sink = ref 0 in
  for _ = 1 to rounds do
    for i = 0 to Array.length points - 1 do
      sink := !sink + Rule_table.lookup_index table (Array.unsafe_get points i)
    done
  done;
  !sink

let compiled_lookups table (points : floatarray array) rounds () =
  let sink = ref 0 in
  for _ = 1 to rounds do
    for i = 0 to Array.length points - 1 do
      sink := !sink + Compiled_table.lookup table (Array.unsafe_get points i)
    done
  done;
  !sink

let decision_contexts n =
  let rng = Prng.create ~seed:13 in
  Array.init n (fun _ ->
      {
        Context.utilization = Prng.float rng;
        Context.queue_delay_s = Prng.float_range rng ~lo:0. ~hi:0.3;
        Context.competing_senders = Prng.int rng ~bound:64;
        Context.loss_rate = Prng.float_range rng ~lo:0. ~hi:0.05;
      })

let remyish = function Cc_algo.Remy | Cc_algo.Remy_phi -> 1 | _ -> 0

let interpreted_choices policy contexts rounds () =
  let sink = ref 0 in
  for _ = 1 to rounds do
    for i = 0 to Array.length contexts - 1 do
      sink := !sink + remyish (Policy.choice_for policy (Array.unsafe_get contexts i))
    done
  done;
  !sink

let compiled_choices compiled contexts rounds () =
  let sink = ref 0 in
  for _ = 1 to rounds do
    for i = 0 to Array.length contexts - 1 do
      sink :=
        !sink + remyish (Policy.Compiled.choice_for compiled (Array.unsafe_get contexts i))
    done
  done;
  !sink

(* {2 Driver} *)

let run ~quick =
  let churn_total = if quick then 200_000 else 2_000_000 in
  (* The quick (CI smoke) budget scales the outstanding-chain count down
     with the event count, so setup does not dominate the measurement. *)
  let chains = if quick then 8192 else 65536 in
  let loop_packets = if quick then 100_000 else 1_000_000 in
  let dumbbell_s = if quick then 10. else 30. in
  let wan_s = if quick then 30. else 100. in
  Printf.printf "(%s budget, best of %d)\n%!" (if quick then "quick" else "default") repetitions;

  (* Size the minor heap the way sweep workers do, so the numbers below
     reflect the tuned configuration the experiments actually run in. *)
  Pool.tune_gc ();

  (* Interleave the repetitions (closures, ports, closures, ...) so a
     load spike on the shared machine cannot hit one variant's whole
     sample; each variant keeps its best wall.  The port variant also
     keeps its smallest [Gc.minor_words] delta — the steady-state
     allocation profile, free of first-run warm-up noise. *)
  let closure_wall = ref infinity in
  let port_wall = ref infinity in
  let port_minor = ref infinity in
  for _ = 1 to repetitions do
    let keep best f = let wall, () = timed f in if wall < !best then best := wall in
    keep closure_wall (churn_closures chains churn_total);
    let m0 = Gc.minor_words () in
    keep port_wall (churn_ports chains churn_total);
    let m = Gc.minor_words () -. m0 in
    if m < !port_minor then port_minor := m
  done;
  let closure_eps = rate churn_total !closure_wall in
  let port_eps = rate churn_total !port_wall in
  Printf.printf "\n  timer churn, %d events (%d chains, 1-in-8 cancelled bystander):\n"
    churn_total chains;
  Printf.printf "    engine, closure API                        %10.0f events/s\n" closure_eps;
  Printf.printf "    engine, recurring timer as a port          %10.0f events/s\n%!" port_eps;

  let loop_wall, loop_delivered, loop_minor, loop_high_water =
    let best_wall = ref infinity in
    let best_d = ref 0 in
    let best_minor = ref infinity in
    let high_water = ref 0 in
    for _ = 1 to repetitions do
      let m0 = Gc.minor_words () in
      let wall, (d, hw) = timed (link_loop loop_packets) in
      let m = Gc.minor_words () -. m0 in
      if wall < !best_wall then begin
        best_wall := wall;
        best_d := d
      end;
      if m < !best_minor then best_minor := m;
      if hw > !high_water then high_water := hw
    done;
    (!best_wall, !best_d, !best_minor, !high_water)
  in
  let loop_pps = rate loop_delivered loop_wall in
  let words_per_event = !port_minor /. float_of_int churn_total in
  let words_per_packet = loop_minor /. float_of_int loop_delivered in
  Printf.printf "\n  saturated 1 Gbps link, closed loop of 32 packets:\n";
  Printf.printf "    %d packets delivered                  %10.0f packets/s\n%!" loop_delivered
    loop_pps;
  Printf.printf "\n  allocation (best of %d, Gc.minor_words deltas):\n" repetitions;
  Printf.printf "    port churn   %10.4f minor words/event\n" words_per_event;
  Printf.printf "    link loop    %10.4f minor words/packet  (pool high water %d cells)\n%!"
    words_per_packet loop_high_water;

  let m0 = Gc.minor_words () in
  let dumbbell_wall, data_packets = timed (dumbbell_packets dumbbell_s) in
  let dumbbell_words_per_packet = (Gc.minor_words () -. m0) /. float_of_int data_packets in
  let dumbbell_pps = rate data_packets dumbbell_wall in
  Printf.printf "\n  paper dumbbell, 8 persistent Cubic flows, %.0f simulated s:\n" dumbbell_s;
  Printf.printf "    %d data packets delivered               %10.0f packets/s (wall %.2f s)\n"
    data_packets dumbbell_pps dumbbell_wall;
  Printf.printf "    allocation %10.4f minor words/data packet\n%!" dumbbell_words_per_packet;

  let select = Cc_select.create () in
  let m0 = Gc.minor_words () in
  let wan_wall, wan_packets = timed (wan_remyphi_packets select wan_s) in
  let wan_words_per_packet = (Gc.minor_words () -. m0) /. float_of_int wan_packets in
  Printf.printf "\n  WAN mesh, remy-phi under link flaps, %.0f simulated s:\n" wan_s;
  Printf.printf "    %d bottleneck packets delivered           %10.0f packets/s (wall %.2f s)\n"
    wan_packets (rate wan_packets wan_wall) wan_wall;
  Printf.printf "    allocation %10.4f minor words/bottleneck packet\n%!" wan_words_per_packet;

  let table = decision_table () in
  let compiled = Compiled_table.compile table in
  let n_points = if quick then 10_000 else 50_000 in
  (* One interpreted round suffices to clear the 10x floor; the ~100x
     faster compiled table needs more rounds to time well. *)
  let interp_rounds = 1 in
  let comp_rounds = if quick then 40 else 200 in
  let points = decision_points (Rule_table.dims table) n_points in
  let box = boxed_points points in
  let policy = Swarm.swarm_policy () in
  let cpolicy = Policy.Compiled.compile policy in
  let n_ctx = if quick then 10_000 else 20_000 in
  let ctx_interp_rounds = if quick then 10 else 50 in
  let ctx_comp_rounds = ctx_interp_rounds * 10 in
  let contexts = decision_contexts n_ctx in
  let interp_wall = ref infinity in
  let comp_wall = ref infinity in
  let comp_minor = ref infinity in
  let pol_interp_wall = ref infinity in
  let pol_comp_wall = ref infinity in
  let interp_sink = ref 0 in
  let comp_sink = ref 0 in
  for _ = 1 to repetitions do
    let keep best sink f = let wall, s = timed f in if wall < !best then best := wall; sink := s in
    keep interp_wall interp_sink (interpreted_lookups table box interp_rounds);
    let m0 = Gc.minor_words () in
    keep comp_wall comp_sink (compiled_lookups compiled points comp_rounds);
    let m = Gc.minor_words () -. m0 in
    if m < !comp_minor then comp_minor := m;
    keep pol_interp_wall (ref 0) (interpreted_choices policy contexts ctx_interp_rounds);
    keep pol_comp_wall (ref 0) (compiled_choices cpolicy contexts ctx_comp_rounds)
  done;
  (* The sinks fold every returned index, so equal per-pass sums are a
     cheap online equivalence check between the two lookup paths. *)
  if !comp_sink * interp_rounds <> !interp_sink * comp_rounds then begin
    Printf.eprintf "decision: compiled and interpreted lookups disagree\n";
    Stdlib.exit 1
  end;
  let interp_lps = rate (n_points * interp_rounds) !interp_wall in
  let comp_lps = rate (n_points * comp_rounds) !comp_wall in
  let decision_speedup = if interp_lps > 0. then comp_lps /. interp_lps else 0. in
  let words_per_lookup = !comp_minor /. float_of_int (n_points * comp_rounds) in
  let pol_interp_cps = rate (n_ctx * ctx_interp_rounds) !pol_interp_wall in
  let pol_comp_cps = rate (n_ctx * ctx_comp_rounds) !pol_comp_wall in
  let policy_speedup = if pol_interp_cps > 0. then pol_comp_cps /. pol_interp_cps else 0. in
  Printf.printf "\n  decision plane, %d whiskers -> %d cells, %d random points:\n"
    (Rule_table.size table) (Compiled_table.cell_count compiled) n_points;
  Printf.printf "    interpreted Rule_table scan            %10.0f lookups/s\n" interp_lps;
  Printf.printf "    compiled flat table                    %10.0f lookups/s  (%.1fx, %.4f minor words/lookup)\n"
    comp_lps decision_speedup words_per_lookup;
  Printf.printf "    interpreted Policy.choice_for          %10.0f choices/s\n" pol_interp_cps;
  Printf.printf "    compiled 64-entry policy               %10.0f choices/s  (%.1fx)\n%!"
    pol_comp_cps policy_speedup;
  [
    ( "micro",
      Json.Obj
        [
          ("quick", Json.Bool quick);
          ( "events",
            Json.Obj
              [
                ("events", Json.Int churn_total);
                ("chains", Json.Int chains);
                ("new_events_per_s", Json.float closure_eps);
                ("port_events_per_s", Json.float port_eps);
              ] );
          ( "packets",
            Json.Obj
              [
                ("link_loop_packets", Json.Int loop_delivered);
                ("link_loop_packets_per_s", Json.float loop_pps);
                ("dumbbell_sim_s", Json.float dumbbell_s);
                ("dumbbell_data_packets", Json.Int data_packets);
                ("dumbbell_packets_per_s", Json.float dumbbell_pps);
              ] );
        ] );
    ( "alloc",
      Json.Obj
        [
          ("minor_words_per_event", Json.float words_per_event);
          ("minor_words_per_packet", Json.float words_per_packet);
          ("dumbbell_minor_words_per_packet", Json.float dumbbell_words_per_packet);
          ("wan_minor_words_per_packet", Json.float wan_words_per_packet);
          ("pool_high_water", Json.Int loop_high_water);
        ] );
    ( "decision",
      Json.Obj
        [
          ("whiskers", Json.Int (Rule_table.size table));
          ("cells", Json.Int (Compiled_table.cell_count compiled));
          ("points", Json.Int n_points);
          ("interpreted_lookups_per_s", Json.float interp_lps);
          ("compiled_lookups_per_s", Json.float comp_lps);
          ("speedup", Json.float decision_speedup);
          ("minor_words_per_lookup", Json.float words_per_lookup);
          ("policy_interpreted_choices_per_s", Json.float pol_interp_cps);
          ("policy_compiled_choices_per_s", Json.float pol_comp_cps);
          ("policy_speedup", Json.float policy_speedup);
        ] );
  ]
