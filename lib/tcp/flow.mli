(** Flow identifiers and per-connection accounting. *)

type allocator
(** Hands out flow ids unique within one experiment. *)

val allocator : unit -> allocator
val fresh : allocator -> int

type conn_stats = {
  flow : int;
  source_index : int;  (** which sender launched the connection *)
  started_at : float;
  finished_at : float;
  bytes : int;  (** application bytes delivered (segments x MSS) *)
  segments : int;
  retransmitted_segments : int;
  timeouts : int;
  rtt_samples : int;
  min_rtt : float;  (** [nan] when no sample was taken *)
  mean_rtt : float;  (** [nan] when no sample was taken *)
}

val duration : conn_stats -> float

val throughput_bps : conn_stats -> float
(** Goodput over the connection's "on" time. *)

val queueing_delay : conn_stats -> float
(** [mean_rtt - min_rtt]: the connection's own estimate of time spent in
    queues (the signal Phi uses for [q]); [nan] without samples. *)

val sanitize : conn_stats -> unit
(** [PHI_SANITIZE=1] hook: record an invariant violation for stats whose
    timestamps run backwards, whose counters are negative, or whose RTTs
    are NaN/Inf or inverted despite positive [rtt_samples] (both RTTs
    NaN is the legitimate "no samples" sentinel).  No-op when the
    sanitizer is disarmed. *)
