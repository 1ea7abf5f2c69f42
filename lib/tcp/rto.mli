(** Retransmission-timeout estimation per RFC 6298: smoothed RTT plus four
    times the RTT variance, exponential backoff on expiry, backoff cleared
    by the next valid sample. *)

type t

val create : ?min_rto:float -> ?max_rto:float -> unit -> t
(** Defaults: [min_rto = 0.2] (ns-2's convention), [max_rto = 60.]. *)

val observe : t -> rtt:float -> unit
(** Feed a (non-retransmitted-segment) RTT sample. *)

val current : t -> float
(** Timeout to arm now, including any backoff. *)

val backoff : t -> unit
(** Double the timeout (saturating at [max_rto]); call on expiry. *)

val srtt : t -> default:float -> float
(** Smoothed RTT, or [default] before the first sample.  Returns a bare
    float (no [option]) so per-ACK callers allocate nothing. *)
