(** Unidirectional link with a finite FIFO queue.

    Models ns-2's queue + duplex-link halves: a packet reaching the head
    of the queue is serialized for [size * 8 / bandwidth] seconds and then
    propagates for [delay] seconds before delivery.  The queue discipline
    is drop-tail by default (the paper's setting — its Section 3.1 rests
    on FIFO's incentive incompatibility) with RED available for the
    DESIGN.md ablations.

    The link keeps the counters the Phi experiments need: bytes and packets
    carried, drops, busy (serialization) time for utilization, and the
    aggregate time packets spent queued (for queueing-delay figures). *)

type t

type red_params = {
  min_threshold : int;  (** packets; no early drops below this average *)
  max_threshold : int;  (** packets; all arrivals dropped above this average *)
  max_probability : float;  (** early-drop probability at [max_threshold] *)
  weight : float;  (** EWMA weight of the average-queue estimator *)
  mark_ecn : bool;
      (** mark data packets (RFC 3168 CE) instead of early-dropping them;
          forced drops above [max_threshold] still drop *)
}

val default_red : ?ecn:bool -> capacity_pkts:int -> unit -> red_params
(** Conventional setting scaled to the buffer: min = capacity/12 (at
    least 5), max = 3 x min, max_p = 0.1, weight = 0.002; [ecn]
    (default false) switches early drops to CE marks. *)

type discipline = Drop_tail | Red of red_params

val set_discipline : t -> rng:Phi_util.Prng.t -> discipline -> unit
(** Switch the queue discipline (takes effect for subsequent arrivals).
    The rng drives RED's random early drops. *)

val create :
  Phi_sim.Engine.t ->
  Packet.pool ->
  bandwidth_bps:float ->
  delay_s:float ->
  capacity_pkts:int ->
  t
(** [bandwidth_bps] must be finite and positive, [delay_s] finite and
    non-negative and [capacity_pkts] at least 1; otherwise raises
    [Invalid_argument] naming the field.  Every packet offered to the
    link must come from the given pool. *)

val set_receiver : t -> (Packet.handle -> unit) -> unit
(** Where delivered packets go.  Must be set before traffic flows.  The
    receiver takes ownership of each delivered handle: it must consume
    it ([Node.receive] does), re-send it, or release it back to the
    pool. *)

val set_handoff : t -> (Packet.handle -> unit) -> unit
(** Divert serialized packets: instead of entering this link's
    propagation stage, each packet that finishes serialization is passed
    to [f], which takes ownership of the handle (it must serialize or
    release it).  This is how {!Boundary_link} turns the egress half of
    a link into a cross-island handoff — delivery counters still
    accumulate here, but propagation is simulated on the destination
    island.  With a handoff installed the receiver is never called. *)

val set_fault_injection : t -> rng:Phi_util.Prng.t -> drop_probability:float -> unit
(** Drop each arriving packet independently with the given probability
    (on top of queue overflows).  For tests and failure-injection
    experiments; probability 0 disables. *)

val send : t -> Packet.handle -> unit
(** Enqueue a packet (or drop it if the queue is full).  Consumes the
    handle: a dropped packet is released back to the pool immediately,
    a carried one is handed to the receiver on delivery. *)

val bandwidth_bps : t -> float
val delay_s : t -> float
val capacity_pkts : t -> int

val queue_length : t -> int
(** Packets currently queued, including the one in service. *)

(** {2 Runtime dynamics}

    Hooks for the scenario plane's adversarial dynamics (link flaps,
    rate renegotiation, RTT jitter).  All of them are safe to call from
    engine-scheduled events mid-run; none of them is called by the
    static experiments, whose runs stay bit-identical. *)

val set_rate_bps : t -> float -> unit
(** Change the serialization rate for packets whose service starts from
    now on; the packet currently in service completes at the rate in
    effect when its service began.  Raises [Invalid_argument] unless
    positive and finite. *)

val set_delay_s : t -> float -> unit
(** Change the propagation delay for packets that finish serialization
    from now on.  Packets already propagating are unaffected.  Delivery
    stays FIFO: when the delay shrinks, a packet that would overtake an
    earlier in-flight one is clamped to land at the same instant as its
    predecessor (gaps compress, order never inverts).  Raises
    [Invalid_argument] on negative or non-finite delays. *)

val set_down : t -> unit
(** Take the link administratively down: subsequent arrivals are
    dropped (counted in {!drops}, so conservation holds), queued packets freeze in place (their queue-wait keeps
    accruing), and the packet in service — plus everything already
    propagating — still completes delivery. *)

val set_up : t -> unit
(** Bring the link back up and resume serving the frozen queue.
    Idempotent. *)

val is_up : t -> bool

(** {2 Windowed measurement}

    A [window] is a snapshot of the link's monotonic counters; the
    [window_*] accessors read the deltas accumulated since the
    snapshot, plus the derived per-window metrics every experiment
    computes (mean queueing delay, loss rate, throughput,
    utilization). *)

type window

val window_open : t -> window
(** Snapshot the counters now; O(1), allocation is one small record. *)

val window_delivered : t -> window -> int
val window_offered : t -> window -> int
val window_drops : t -> window -> int
val window_bytes_delivered : t -> window -> int

val window_busy_s : t -> window -> float
(** Serialization time accumulated since the snapshot. *)

val window_queue_delay_s : t -> window -> float
(** Mean queue wait per packet delivered in the window (0 if none). *)

val window_loss_rate : t -> window -> float
(** Fraction of packets offered in the window that were dropped (0 if
    nothing was offered). *)

val window_throughput_bps : t -> window -> elapsed_s:float -> float
(** Delivered bits in the window over [elapsed_s]. *)

val window_utilization : t -> window -> elapsed_s:float -> float
(** Busy time over [elapsed_s], capped at 1. *)

(** {2 Counters (monotonic since creation)} *)

val ecn_marks : t -> int
(** Packets marked congestion-experienced by a RED+ECN discipline. *)

val packets_delivered : t -> int
val bytes_delivered : t -> int
val drops : t -> int
val packets_offered : t -> int

val busy_time : t -> float
(** Total serialization time so far; divided by elapsed time this is the
    link utilization. *)

val total_queue_wait : t -> float
(** Sum over delivered packets of time spent waiting before service. *)
