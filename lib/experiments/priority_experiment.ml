module Flow = Phi_tcp.Flow

type flow_share = { weight : float; throughput_bps : float }

type result = {
  entity_flows : flow_share list;
  entity_aggregate_bps : float;
  reference_aggregate_bps : float;
  competitor_aggregate_bps : float;
  competitor_reference_bps : float;
}

(* Per-flow delivered bits/s over the second half of a persistent run,
   one controller factory per flow: the acked bytes at the end minus
   those at the half.  A persistent run up to any instant does not
   depend on its horizon, so the same seeded run stopped at the half
   snapshots them exactly. *)
let second_half_shares ~spec ~duration_s ~seed ccs =
  let acked duration_s =
    (Scenario.run_persistent
       ~cc_factory:(fun i -> ccs.(i))
       ~n_flows:(Array.length ccs) ~duration_s ~spec ~seed ())
      .Scenario.records
  in
  let half = duration_s /. 2. in
  Array.of_list
    (List.map2
       (fun (a : Flow.conn_stats) (b : Flow.conn_stats) ->
         float_of_int ((b.Flow.bytes - a.Flow.bytes) * 8) /. half)
       (acked half) (acked duration_s))

let sum a = Array.fold_left ( +. ) 0. a

let run ?(priorities = [| 4.; 1.; 1.; 1. |]) ?(n_competitors = 4) ?(duration_s = 60.) ~spec
    ~seed () =
  let k = Array.length priorities in
  if k = 0 then invalid_arg "Priority_experiment.run: no priorities";
  let weights = Phi.Priority.ensemble_weights ~priorities in
  let entity_ccs = Array.map (fun w () -> Phi_tcp.Reno.make_weighted ~weight:w ()) weights in
  let standard () = Phi_tcp.Reno.make () in
  let competitor_ccs = Array.make n_competitors standard in
  (* Treatment: weighted entity flows + standard competitors. *)
  let treatment =
    second_half_shares ~spec ~duration_s ~seed (Array.append entity_ccs competitor_ccs)
  in
  (* Control: same number of flows, all standard. *)
  let control =
    second_half_shares ~spec ~duration_s ~seed (Array.make (k + n_competitors) standard)
  in
  let entity = Array.sub treatment 0 k in
  let competitors = Array.sub treatment k n_competitors in
  let control_entity = Array.sub control 0 k in
  let control_competitors = Array.sub control k n_competitors in
  {
    entity_flows =
      Array.to_list
        (Array.mapi (fun i thr -> { weight = weights.(i); throughput_bps = thr }) entity);
    entity_aggregate_bps = sum entity;
    reference_aggregate_bps = sum control_entity;
    competitor_aggregate_bps = sum competitors;
    competitor_reference_bps = sum control_competitors;
  }
