module Cloud_trace = Phi_workload.Cloud_trace
module Sampler = Phi_ipfix.Sampler
module Sharing = Phi_ipfix.Sharing
module Prng = Phi_util.Prng

type result = {
  total_flows : int;
  sampled_flows : int;
  slices : int;
  ccdf : (int * float) list;
}

let paper_points = [ (5, 0.50); (100, 0.12) ]

let run ?(config = Cloud_trace.default_config) ?(rate = Sampler.default_rate) ~seed () =
  let rng = Prng.create ~seed in
  let flows = Cloud_trace.generate rng config in
  let records = Sampler.sample_flows rng ~rate flows in
  let stats = Sharing.analyze records in
  {
    total_flows = List.length flows;
    sampled_flows = Sharing.flows_observed stats;
    slices = Sharing.slices stats;
    ccdf = Sharing.ccdf stats ~thresholds:[ 1; 5; 10; 50; 100 ];
  }
