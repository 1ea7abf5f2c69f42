(** TCP Cubic (Ha, Rhee & Xu; RFC 8312) with the three knobs the paper
    sweeps: the initial congestion window ([windowInit_] in ns-2), the
    initial slow-start threshold ([initial_ssthresh]) and the
    multiplicative-decrease parameter beta, where the window shrinks to
    [(1 - beta) * cwnd] on a fast-retransmit loss. *)

type params = {
  initial_cwnd : float;  (** ns-2 [windowInit_], segments *)
  initial_ssthresh : float;  (** segments; RFC 5681 says "arbitrarily high" *)
  beta : float;  (** decrease parameter in (0, 1); ns-2 default 0.2 *)
  c : float;  (** cubic scaling constant, conventionally 0.4 *)
  fast_convergence : bool;
  tcp_friendly : bool;
}

val default_params : params
(** The Table 1 defaults: initial_ssthresh 65536 segments, windowInit_ 2
    segments, beta 0.2 (plus C = 0.4, fast convergence and TCP-friendliness
    on, as in ns-2's linux-like Cubic). *)

val with_knobs : ?initial_cwnd:float -> ?initial_ssthresh:float -> ?beta:float -> params -> params
(** Override just the swept knobs of an existing parameter set. *)

val make : params -> Cc.t
(** Fresh Cubic controller.  Raises [Invalid_argument] on out-of-range
    parameters. *)

val params_to_string : params -> string
(** Compact "ssthresh/init/beta" rendering used in sweep tables. *)
