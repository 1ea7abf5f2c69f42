type params = {
  initial_cwnd : float;
  initial_ssthresh : float;
  beta : float;
  c : float;
  fast_convergence : bool;
  tcp_friendly : bool;
}

let default_params =
  {
    initial_cwnd = 2.;
    initial_ssthresh = 65536.;
    beta = 0.2;
    c = 0.4;
    fast_convergence = true;
    tcp_friendly = true;
  }

let with_knobs ?initial_cwnd ?initial_ssthresh ?beta params =
  let params =
    match initial_cwnd with Some v -> { params with initial_cwnd = v } | None -> params
  in
  let params =
    match initial_ssthresh with Some v -> { params with initial_ssthresh = v } | None -> params
  in
  match beta with Some v -> { params with beta = v } | None -> params

let params_to_string p =
  Printf.sprintf "%g/%g/%.2g" p.initial_ssthresh p.initial_cwnd p.beta

(* All floats, so OCaml stores the record flat and a field store boxes
   nothing (phi-lint [hot-float-field]).  [epoch_start] is [nan] while
   no epoch is open: [now] is always finite, so the sentinel never
   collides with a real start. *)
type state = {
  mutable w_max : float;
  mutable epoch_start : float;
  mutable k : float;
  mutable origin_point : float;
  mutable w_tcp : float;
  mutable min_rtt : float;
}

let cbrt x = if x < 0. then -.((-.x) ** (1. /. 3.)) else x ** (1. /. 3.)

let make params =
  if params.beta <= 0. || params.beta >= 1. then invalid_arg "Cubic.make: beta out of (0, 1)";
  if params.c <= 0. then invalid_arg "Cubic.make: c must be positive";
  let s =
    { w_max = 0.; epoch_start = nan; k = 0.; origin_point = 0.; w_tcp = 0.; min_rtt = infinity }
  in
  let begin_epoch (cc : Cc.t) ~now =
    s.epoch_start <- now;
    if cc.cwnd < s.w_max then begin
      s.k <- cbrt ((s.w_max -. cc.cwnd) /. params.c);
      s.origin_point <- s.w_max
    end
    else begin
      s.k <- 0.;
      s.origin_point <- cc.cwnd
    end;
    s.w_tcp <- cc.cwnd
  in
  let on_ack (cc : Cc.t) ~now ~rtt ~sent_at:_ ~newly_acked =
    (* [rtt > 0.] is the has-sample test: no sample is [nan]. *)
    if rtt > 0. then s.min_rtt <- Float.min s.min_rtt rtt;
    let acked = float_of_int newly_acked in
    if Cc.in_slow_start cc then cc.cwnd <- Float.min (cc.cwnd +. acked) (Float.max cc.ssthresh cc.cwnd)
    else begin
      if Float.is_nan s.epoch_start then begin_epoch cc ~now;
      let epoch_start = s.epoch_start in
      let min_rtt = if Float.is_finite s.min_rtt then s.min_rtt else 0.1 in
      (* Window target one RTT into the future, per RFC 8312. *)
      let t = now +. min_rtt -. epoch_start in
      let delta = t -. s.k in
      let target = s.origin_point +. (params.c *. delta *. delta *. delta) in
      if target > cc.cwnd then cc.cwnd <- cc.cwnd +. ((target -. cc.cwnd) /. cc.cwnd *. acked)
      else
        (* Max-probing plateau: grow very slowly while below the target. *)
        cc.cwnd <- cc.cwnd +. (0.01 /. cc.cwnd *. acked);
      if params.tcp_friendly then begin
        (* Estimate of what standard AIMD with the same beta would earn. *)
        let rtt_for_est = if rtt > 0. then rtt else min_rtt in
        s.w_tcp <-
          s.w_tcp +. (3. *. params.beta /. (2. -. params.beta) *. (acked /. rtt_for_est *. min_rtt /. cc.cwnd));
        if s.w_tcp > cc.cwnd then cc.cwnd <- s.w_tcp
      end
    end
  in
  (* The sender floors cwnd/ssthresh at [Cc.min_cwnd] after these events;
     the controller only computes the multiplicative decrease. *)
  let on_loss (cc : Cc.t) ~now:_ =
    s.epoch_start <- nan;
    if params.fast_convergence && cc.cwnd < s.w_max then
      s.w_max <- cc.cwnd *. (2. -. params.beta) /. 2.
    else s.w_max <- cc.cwnd;
    cc.cwnd <- cc.cwnd *. (1. -. params.beta);
    cc.ssthresh <- cc.cwnd
  in
  let on_timeout (cc : Cc.t) ~now:_ =
    s.epoch_start <- nan;
    s.w_max <- cc.cwnd;
    cc.ssthresh <- cc.cwnd *. (1. -. params.beta);
    cc.cwnd <- 1.
  in
  Cc.make ~name:"cubic" ~initial_cwnd:params.initial_cwnd
    ~initial_ssthresh:params.initial_ssthresh ~on_ack ~on_loss ~on_timeout ()
