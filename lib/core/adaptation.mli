(** Informed adaptation without cooperation (Section 3.2).

    Even when the majority of traffic ignores Phi, a minority that shares
    information can adapt endpoint knobs from others' experience instead
    of cold-starting.  The paper's two examples: sizing a streaming jitter
    buffer from shared delay-variation measurements, and adjusting the
    duplicate-ACK fast-retransmit threshold where reordering is
    prevalent. *)

val cold_start_jitter_buffer_ms : float
(** What a client must assume with no information (a conservative fixed
    buffer; 120 ms). *)

val jitter_buffer_ms : shared_jitter_ms:float array -> unit -> float
(** Initial jitter buffer from the jitter samples other connections on the
    path shared: their 95th percentile plus a 5 ms margin.  Raises
    [Invalid_argument] on an empty sample. *)

val late_packet_fraction : jitter_ms:float array -> buffer_ms:float -> float
(** Fraction of packets that would miss their playout deadline with the
    given buffer — the quality metric for comparing buffer choices. *)

val dupack_threshold : reorder_depths:int array -> unit -> int
(** Smallest threshold (at least the standard 3) keeping the expected
    fraction of spurious fast retransmits at or under 1 %, given the
    reordering depths other connections observed.  An empty sample
    returns 3. *)
