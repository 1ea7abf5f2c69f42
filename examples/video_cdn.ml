(* A "five computers" scenario: a video CDN pushing traffic through one
   bottleneck it shares with other entities' traffic.

   The CDN runs four persistent flows: one HD stream it cares deeply
   about and three background bulk transfers.  Using Phi's cross-host
   prioritization (Section 3.3) it gives the HD stream a 4x weight while
   keeping the ensemble exactly as aggressive as four standard TCP flows,
   so the other entities on the link are not harmed.

   Run with: dune exec examples/video_cdn.exe *)

module Topology = Phi_net.Topology
module Pe = Phi_experiments.Priority_experiment

let () =
  let priorities = [| 4.; 1.; 1.; 1. |] in
  Printf.printf "CDN flows: 1 HD stream (priority 4) + 3 bulk transfers (priority 1)\n";
  Printf.printf "competition: 4 standard TCP flows from other entities\n\n";
  let weights = Phi.Priority.ensemble_weights ~priorities in
  Printf.printf "ensemble weights: %s (sum = flows, so the ensemble stays TCP-friendly)\n\n"
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.2f") weights)));
  let r = Pe.run ~priorities ~n_competitors:4 ~duration_s:180. ~spec:Topology.paper_spec ~seed:21 () in
  List.iteri
    (fun i (f : Pe.flow_share) ->
      Printf.printf "  %-12s weight %.2f -> %5.2f Mbps\n"
        (if i = 0 then "HD stream" else "bulk")
        f.Pe.weight
        (f.Pe.throughput_bps /. 1e6))
    r.Pe.entity_flows;
  Printf.printf "\nCDN aggregate:        %5.2f Mbps\n" (r.Pe.entity_aggregate_bps /. 1e6);
  Printf.printf "4 standard flows get: %5.2f Mbps (control run)\n"
    (r.Pe.reference_aggregate_bps /. 1e6);
  Printf.printf "competitors now:      %5.2f Mbps (control: %5.2f Mbps)\n"
    (r.Pe.competitor_aggregate_bps /. 1e6)
    (r.Pe.competitor_reference_bps /. 1e6);
  let hd = (List.hd r.Pe.entity_flows).Pe.throughput_bps in
  let bulk =
    match r.Pe.entity_flows with
    | _ :: rest ->
      List.fold_left (fun acc f -> acc +. f.Pe.throughput_bps) 0. rest
      /. float_of_int (List.length rest)
    | [] -> 0.
  in
  Printf.printf "\nHD stream enjoys %.1fx a bulk flow's bandwidth without hurting other entities\n"
    (hd /. Float.max 1. bulk);
  Sanitize.check ()
