(** Window-based TCP sender with SACK loss recovery.

    The transport machinery follows the SACK-enabled ns-2 linux agent the
    paper used: congestion window evolution is delegated to a {!Cc.t};
    loss recovery is scoreboard-driven in the style of RFC 6675 (a segment
    is deemed lost once the receiver has selectively acknowledged data
    three or more segments above it; sending is governed by a pipe
    estimate); a go-back-N retransmission timeout with exponential backoff
    is the fallback for tail losses and lost retransmissions.  Sequence
    numbers count MSS-sized segments. *)

type t

val create :
  Phi_sim.Engine.t ->
  node:Phi_net.Node.t ->
  flow:int ->
  dst:int ->
  cc:Cc.t ->
  total_segments:int ->
  ?source_index:int ->
  ?on_complete:(Flow.conn_stats -> unit) ->
  unit ->
  t
(** The sender binds [flow] on [node] to receive ACKs; a matching
    {!Receiver} must be bound on the destination.  [total_segments] must be
    at least 1; use {!persistent_total} for effectively infinite flows. *)

val persistent_total : int
(** A segment count no realistic simulation can finish. *)

val start : t -> unit
(** Begin transmitting (idempotent). *)

val abort : t -> unit
(** Stop without completing: cancels timers and unbinds the flow.  No
    [on_complete] callback fires. *)

val cwnd : t -> float

val set_cwnd_bound : t -> float -> unit
(** Arm the [PHI_SANITIZE=1] cwnd upper bound for this sender (typically
    bottleneck buffer + BDP, in packets).  The sanitizer always checks
    the lower bound (>= 1 packet, non-NaN); the upper check only runs
    once a bound is set.  Raises [Invalid_argument] if [bound < 1]. *)

val in_recovery : t -> bool
val acked_segments : t -> int
val sent_segments : t -> int
val retransmitted_segments : t -> int
val timeouts : t -> int

val ecn_reductions : t -> int
(** Window reductions triggered by ECN echoes (at most one per RTT). *)

val completed : t -> bool

val stats : t -> Flow.conn_stats
(** Snapshot of the connection's accounting so far ([finished_at] is the
    current time while still running). *)

(** {2 The SACK scoreboard, exposed for tests}

    One flag byte per outstanding segment: SACKed, deemed lost, and
    {!in_retx_flag}, set exactly while the segment's retransmission is
    in the retransmission table (which is never probed, only added to,
    removed from, reset and folded).  Merging an ACK's SACK blocks marks
    each segment they cover with {!mark_sacked}, skipping the parts the
    last SACK-carrying ACK's blocks already marked. *)

val in_retx_flag : int

type scoreboard = {
  una : int;  (** first unacknowledged segment *)
  nxt : int;  (** next new segment to send *)
  flags : int array;  (** the flag byte of each seq in [\[una, nxt)], in order *)
  n_sacked : int;
  n_lost : int;
  n_retx : int;  (** size of the retransmission table *)
  highest_sacked : int;  (** one past the highest SACKed seq *)
  retx : (int * float) list;
      (** the retransmission table's (seq, send time) entries, in its
          fold order — the order lost retransmissions are requeued in *)
}

val scoreboard : t -> scoreboard

val mark_sacked : t -> int -> unit
(** Mark one segment SACKed, as merging a block does for each segment
    it covers; a seq outside [\[una, nxt)] is ignored. *)
