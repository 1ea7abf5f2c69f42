(** TCP Vegas (Brakmo, O'Malley & Peterson, SIGCOMM 1994) — the classic
    delay-based congestion control, cited by the paper as one of the
    "myriad flavors" of feedback.  Included as an additional baseline for
    the ablation benches: unlike loss-based Cubic, Vegas backs off from
    the *difference* between expected and actual throughput and keeps
    queues short without shared state.

    Per RTT, with [diff = cwnd * (1 - base_rtt / rtt)] (segments resident
    in queues): grow by one segment if [diff < alpha], shrink by one if
    [diff > beta], hold otherwise.  Slow start is halted once
    [diff > 1] segment (Vegas's [gamma]). *)

val make :
  ?alpha:float -> ?beta:float -> ?initial_cwnd:float -> ?initial_ssthresh:float -> unit -> Cc.t
(** Defaults: [alpha = 2.], [beta = 4.] segments, [initial_cwnd = 2.],
    [initial_ssthresh = 65536.].  Requires [alpha <= beta]. *)
