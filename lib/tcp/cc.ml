type recovery = Sack | Go_back_n

(* The one record on the per-ACK path whose float stores still box:
   the benchmark's controller wrapper ([perfbench/_src/cc_wrap.ml])
   copies this record and wraps its hooks, so its layout can change
   only together with the benchmark. *)
(* phi-lint: allow hot-float-field *)
type t = {
  name : string;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable pacing_gap_s : float;
  recovery : recovery;
  on_ack : t -> now:float -> rtt:float -> sent_at:float -> newly_acked:int -> unit;
  on_loss : t -> now:float -> unit;
  on_timeout : t -> now:float -> unit;
}

let make ~name ~initial_cwnd ~initial_ssthresh ?(recovery = Sack) ?(pacing_gap_s = 0.) ~on_ack
    ~on_loss ~on_timeout () =
  if initial_cwnd < 1. then invalid_arg "Cc.make: initial_cwnd must be >= 1";
  if initial_ssthresh < 1. then invalid_arg "Cc.make: initial_ssthresh must be >= 1";
  if not (pacing_gap_s >= 0.) then invalid_arg "Cc.make: pacing_gap_s must be >= 0";
  {
    name;
    cwnd = initial_cwnd;
    ssthresh = initial_ssthresh;
    pacing_gap_s;
    recovery;
    on_ack;
    on_loss;
    on_timeout;
  }

let min_cwnd = 2.

let in_slow_start t = t.cwnd < t.ssthresh
