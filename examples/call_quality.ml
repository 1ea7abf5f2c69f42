(* Performance prediction surfaced to the user (Section 3.5).

   A provider accumulates per-connection measurements keyed by client
   /24.  Before a client starts a download or a VoIP call, the
   application asks the predictor what to expect — and can warn the user
   ("this call is likely to be poor") before dialling.

   History here comes from actual simulated TCP transfers to three
   client populations behind different paths, so the predictor is fed by
   the same machinery the congestion-control experiments use.

   Run with: dune exec examples/call_quality.exe *)

module Engine = Phi_sim.Engine
module Topology = Phi_net.Topology
module History = Phi_predict.History
module Predictor = Phi_predict.Predictor
module Voip = Phi_predict.Voip

(* Run a few TCP transfers over a dumbbell with the given RTT/bandwidth
   and record what the connections measured. *)
let observe_population history ~prefix24 ~rtt_s ~bw_bps ~loss_probability ~seed =
  let spec =
    { Topology.paper_spec with Topology.n = 2; bottleneck_bw_bps = bw_bps; rtt_s }
  in
  let engine = Engine.create () in
  let dumbbell = Topology.dumbbell engine spec in
  if loss_probability > 0. then
    Phi_net.Link.set_fault_injection dumbbell.Topology.bottleneck
      ~rng:(Phi_util.Prng.create ~seed) ~drop_probability:loss_probability;
  let rng = Phi_util.Prng.create ~seed:(seed + 1) in
  let flows = Phi_tcp.Flow.allocator () in
  let source =
    Phi_tcp.Source.create engine ~rng ~flows
      ~src_node:dumbbell.Topology.senders.(0)
      ~dst_node:dumbbell.Topology.receivers.(0)
      ~index:0
      ~cc_factory:(fun () -> Phi_tcp.Cubic.make Phi_tcp.Cubic.default_params)
      ~on_conn_end:(fun stats ->
        if stats.Phi_tcp.Flow.rtt_samples > 0 then
          History.add history ~prefix24
            {
              History.throughput_bps = Phi_tcp.Flow.throughput_bps stats;
              rtt_s = stats.Phi_tcp.Flow.mean_rtt;
              loss_rate =
                (if stats.Phi_tcp.Flow.segments = 0 then 0.
                 else
                   float_of_int stats.Phi_tcp.Flow.retransmitted_segments
                   /. float_of_int stats.Phi_tcp.Flow.segments);
            })
      { Phi_tcp.Source.mean_on_bytes = 150e3; mean_off_s = 0.3 }
  in
  Phi_tcp.Source.start source;
  Engine.run ~until:240. engine;
  Phi_tcp.Source.abort_current source

let prefix_of a b c = (a lsl 16) lor (b lsl 8) lor c

let () =
  let history = History.create () in
  let populations =
    [
      ("fibre-metro   (10.1.1.0/24)", prefix_of 10 1 1, 0.030, 50e6, 0.000);
      ("dsl-suburb    (23.2.2.0/24)", prefix_of 23 2 2, 0.120, 8e6, 0.002);
      ("satellite-isl (98.3.3.0/24)", prefix_of 98 3 3, 0.600, 4e6, 0.02);
    ]
  in
  print_endline "collecting connection history from simulated transfers...";
  List.iteri
    (fun i (_, prefix24, rtt_s, bw_bps, loss) ->
      observe_population history ~prefix24 ~rtt_s ~bw_bps ~loss_probability:loss
        ~seed:(100 + i))
    populations;
  Printf.printf "history: %d samples\n\n" (History.total history);
  let download_bytes = 25_000_000 in
  List.iter
    (fun (name, prefix24, _, _, _) ->
      Printf.printf "%s\n" name;
      (match Predictor.download_time_s history ~prefix24 ~bytes:download_bytes with
      | Some (expected, pessimistic) ->
        Printf.printf "  25 MB download: ~%.0f s (up to %.0f s if unlucky)\n" expected
          pessimistic
      | None -> print_endline "  download: no estimate");
      (match Predictor.voip_mos history ~prefix24 with
      | Some mos ->
        Printf.printf "  VoIP call:      MOS %.2f (%s)%s\n" mos (Voip.quality_label mos)
          (if mos < 3.1 then "  << warn the user before dialling" else "")
      | None -> print_endline "  VoIP: no estimate"))
    populations;
  (* A client from an unseen /24 in a known /16 still gets an answer. *)
  let cousin = prefix_of 10 1 99 in
  print_endline "\nnew client 10.1.99.0/24 (never seen, same /16 as fibre-metro):";
  (match Predictor.throughput_bps history ~prefix24:cousin () with
  | Some est ->
    let level =
      match est.Predictor.level with
      | `P24 -> "/24"
      | `P16 -> "/16"
      | `P8 -> "/8"
      | `Global -> "global"
    in
    Printf.printf "  predicted throughput %.1f Mbps (from %s history, %d samples)\n"
      (est.Predictor.value /. 1e6) level est.Predictor.samples
  | None -> print_endline "  no estimate");
  Sanitize.check ()
