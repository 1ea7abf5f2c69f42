(* All floats, so the record is stored flat and its stores box nothing
   (phi-lint [hot-float-field]); the sample count lives beside it. *)
type state = {
  mutable base_rtt : float;
  mutable rtt_sum : float;
  mutable next_adjust_at : float;  (* end of the current observation epoch *)
}

(* Slow start halts once more than this many segments are queued. *)
let gamma = 1.

let make ?(alpha = 2.) ?(beta = 4.) ?(initial_cwnd = 2.) ?(initial_ssthresh = 65536.) () =
  if alpha > beta then invalid_arg "Vegas.make: alpha must be <= beta";
  if alpha <= 0. then invalid_arg "Vegas.make: alpha must be positive";
  let s = { base_rtt = infinity; rtt_sum = 0.; next_adjust_at = 0. } in
  let rtt_count = ref 0 in
  let on_ack (cc : Cc.t) ~now ~rtt ~sent_at:_ ~newly_acked =
    (* [rtt > 0.] is the has-sample test: no sample is [nan]. *)
    if rtt > 0. then begin
      if rtt < s.base_rtt then s.base_rtt <- rtt;
      s.rtt_sum <- s.rtt_sum +. rtt;
      incr rtt_count
    end;
    if now >= s.next_adjust_at && !rtt_count > 0 && Float.is_finite s.base_rtt then begin
      let mean_rtt = s.rtt_sum /. float_of_int !rtt_count in
      s.rtt_sum <- 0.;
      rtt_count := 0;
      s.next_adjust_at <- now +. mean_rtt;
      (* Segments this connection keeps queued in the network. *)
      let diff = cc.Cc.cwnd *. (1. -. (s.base_rtt /. mean_rtt)) in
      if Cc.in_slow_start cc then begin
        if diff > gamma then begin
          (* Leave slow start: the queue is already building. *)
          cc.Cc.ssthresh <- Float.max Cc.min_cwnd (cc.Cc.cwnd /. 2.);
          cc.Cc.cwnd <- Float.max Cc.min_cwnd (cc.Cc.cwnd -. 1.)
        end
        else
          (* Vegas doubles only every other RTT; approximated by +0.5 per
             acked segment within the epoch (net: x1.5-2 per RTT). *)
          cc.Cc.cwnd <- Float.min (cc.Cc.cwnd +. (0.5 *. float_of_int newly_acked)) (Float.max cc.Cc.ssthresh cc.Cc.cwnd)
      end
      else if diff < alpha then cc.Cc.cwnd <- cc.Cc.cwnd +. 1.
      else if diff > beta then cc.Cc.cwnd <- Float.max Cc.min_cwnd (cc.Cc.cwnd -. 1.)
    end
    else if Cc.in_slow_start cc then
      cc.Cc.cwnd <- Float.min (cc.Cc.cwnd +. (0.5 *. float_of_int newly_acked)) (Float.max cc.Cc.ssthresh cc.Cc.cwnd)
  in
  (* Loss/timeout decreases rely on the sender's [Cc.min_cwnd] floor; the
     in-epoch decreases above keep their own clamps (algorithmic). *)
  let on_loss (cc : Cc.t) ~now:_ =
    cc.Cc.ssthresh <- cc.Cc.cwnd *. 0.75;
    cc.Cc.cwnd <- cc.Cc.ssthresh
  in
  let on_timeout (cc : Cc.t) ~now:_ =
    cc.Cc.ssthresh <- cc.Cc.cwnd /. 2.;
    cc.Cc.cwnd <- 1.
  in
  Cc.make ~name:"vegas" ~initial_cwnd ~initial_ssthresh ~on_ack ~on_loss ~on_timeout ()
