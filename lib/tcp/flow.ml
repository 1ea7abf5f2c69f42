type allocator = { mutable next : int }

let allocator () = { next = 0 }

let fresh t =
  let id = t.next in
  t.next <- t.next + 1;
  id

type conn_stats = {
  flow : int;
  source_index : int;
  started_at : float;
  finished_at : float;
  bytes : int;
  segments : int;
  retransmitted_segments : int;
  timeouts : int;
  rtt_samples : int;
  min_rtt : float;
  mean_rtt : float;
}

let duration t = t.finished_at -. t.started_at

let throughput_bps t =
  let d = duration t in
  if d <= 0. then 0. else float_of_int (t.bytes * 8) /. d

let queueing_delay t = t.mean_rtt -. t.min_rtt

(* Sanitizer hook: validate a finished connection's stats before they
   are reported downstream (context server, experiment aggregation).
   Both RTTs being NaN is the legitimate "no samples" sentinel. *)
let sanitize t =
  let module Invariant = Phi_sim.Invariant in
  if Invariant.enabled () then begin
    let bad rule detail = Invariant.record ~rule ~time:t.finished_at detail in
    if t.finished_at < t.started_at then
      bad "conn-stats"
        (Printf.sprintf "flow %d: finished at %g before start %g" t.flow t.finished_at
           t.started_at);
    if t.bytes < 0 || t.segments < 0 || t.retransmitted_segments < 0 || t.timeouts < 0 then
      bad "conn-stats" (Printf.sprintf "flow %d: negative counter" t.flow);
    if t.rtt_samples > 0 then begin
      if not (Float.is_finite t.min_rtt && Float.is_finite t.mean_rtt) then
        bad "metric-finite"
          (Printf.sprintf "flow %d: rtt min=%g mean=%g with %d samples" t.flow t.min_rtt
             t.mean_rtt t.rtt_samples)
      else if t.min_rtt -. t.mean_rtt > 1e-9 *. t.min_rtt then
        (* Tolerance: a mean over n equal samples can round an ulp or two
           below the min; only a materially smaller mean is a violation. *)
        bad "metric-range"
          (Printf.sprintf "flow %d: mean rtt %g below min rtt %g" t.flow t.mean_rtt t.min_rtt)
    end
  end
