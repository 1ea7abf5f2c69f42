(** Cross-island link for the conservative parallel engine.

    Replaces an ordinary {!Link} wherever a topology is cut into
    [Phi_sim.Pdes] islands.  The egress half (queue + serialization) is
    a real {!Link} on the {e source} island — identical drop, RED, ECN
    and counter behaviour — while propagation crosses the cut: each
    serialized packet is flattened into a growable outbox (and its
    source-pool cell released).  At every window barrier the
    destination island drains the outbox, re-materializing each record
    into its own pool and scheduling its delivery at the recorded
    arrival time, with the handle as the delivery event's payload, where
    it waits like a packet in flight on a serial {!Link}: the boundary
    keeps only a count of the packets propagating.  Arrival times are
    computed with the same IEEE expression the serial engine uses, so a
    partitioned run delivers at bit-identical virtual times.  With the
    [PHI_SANITIZE=1] sanitizer armed, every drain checks the
    cross-island conservation identity (rule [boundary-conservation]):
    packets the egress handed off = {!delivered} + {!in_transit}.

    The link's propagation delay is the boundary's {e lookahead}; it is
    registered with the coordinator at creation, bounding the window
    size ([Pdes.run] refuses windows larger than the minimum lookahead).

    The outbox grows by doubling and never blocks the producer (the
    consumer may be parked at the window barrier, so blocking would
    deadlock): however many packets one window hands off, all of them
    are delivered. *)

type t

exception Fault of string
(** A boundary invariant broke: the source island's published horizon
    fell behind the destination's at drain time (a coordinator bug; the
    conservative window scheme is supposed to make this impossible). *)

val create :
  Phi_sim.Pdes.t ->
  src:Phi_sim.Pdes.island ->
  dst:Phi_sim.Pdes.island ->
  src_pool:Packet.pool ->
  dst_pool:Packet.pool ->
  bandwidth_bps:float ->
  delay_s:float ->
  capacity_pkts:int ->
  t
(** Build the boundary: creates the egress {!Link} on [src]'s engine,
    registers the propagation delay as lookahead with the coordinator,
    and registers the drain on [dst].  Nothing is preallocated for the
    crossing: the outbox grows on first use.
    [delay_s] must be strictly positive (zero lookahead admits no
    parallel window) and the two islands distinct.  Like ordinary
    links, construction is serial wiring — it must happen before
    [Pdes.run]. *)

val egress : t -> Link.t
(** The source-side link; route traffic into the boundary by sending to
    this (e.g. from a {!Node} forwarding table).  Its delivery counters
    count packets that completed serialization and entered the outbox. *)

val set_receiver : t -> (Packet.handle -> unit) -> unit
(** Where re-materialized packets go on the destination island —
    typically [Node.receive] of the island's ingress router.  The
    receiver takes ownership of each handle (drawn from [dst_pool]).
    Must be set before traffic flows. *)

val delay_s : t -> float
(** Propagation delay across the cut (= this boundary's lookahead). *)

val delivered : t -> int
(** Packets materialized and handed to the destination receiver. *)

val in_transit : t -> int
(** Packets currently crossing: records still in the outbox plus drained
    packets not yet delivered.  When a run ends mid-flight the drained
    ones are live cells of [dst_pool], held by their pending delivery
    events like the packets in flight on a serial {!Link} (outbox records
    hold no cell: theirs was released at serialization).  Together with
    {!delivered} it accounts for every packet the {!egress} link
    delivered (handed off). *)
