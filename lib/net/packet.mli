(** Pooled packets exchanged inside the simulator.

    Segments are counted in MSS-sized units (as in ns-2's TCP agents):
    [seq] is a segment number on data packets and a cumulative
    next-expected segment number on ACKs.  ACKs echo the original send
    timestamp so senders can take RTT samples without keeping a
    retransmission map, and carry SACK blocks describing out-of-order
    data the receiver holds (the paper's ns-2 Cubic is the SACK-enabled
    linux agent).

    Packets live in a generation-stamped slab pool — the same design as
    the engine's event cells, and as ns-2's recycled packet objects.  A
    packet is a {!handle}: an immediate int packing (generation, slab
    index) into the fields of a structure-of-arrays slab, so acquiring,
    reading, writing and releasing a packet allocates nothing.  ACK
    metadata (RTT echo, up to {!max_sack_blocks} SACK ranges, ECN echo)
    is flattened into fixed inline slab fields — no inner record, no
    list.

    {2 Ownership}

    [acquire_data]/[acquire_ack] hand the caller ownership of a cell;
    exactly one owner must eventually {!release} it.  Ownership follows
    the packet through the network: [Node.receive] consumes the handle
    (releasing it after local dispatch, or passing ownership to
    [Link.send]), and a link releases every packet it drops.  Handlers
    must copy the fields they need out of the packet and never retain
    the handle past their own return — after release the generation
    check makes any kept handle detectably stale (the [PHI_SANITIZE=1]
    sanitizer records [packet-stale-handle] / [packet-double-release]
    violations; an unarmed run raises on double release).  The phi-lint
    [packet-escape] rule polices retention patterns statically. *)

type pool
(** A packet slab.  The topology builder creates one per simulation
    ([Topology.build] and [Topology.dumbbell]; one per island under
    [Topology.build_partitioned]) and every node and link of that
    simulation shares it.  Not domain-safe: never share a pool across
    concurrently running engines. *)

type handle = private int
(** A pooled packet.  Immediates only — never allocated, compared, or
    retained after release. *)

val create_pool : unit -> pool

val mss : int
(** Data segment wire size in bytes (1500, Ethernet-sized as in the ns-2
    setup). *)

val ack_size : int
(** ACK wire size in bytes (40). *)

val max_sack_blocks : int
(** Maximum SACK ranges carried per ACK (3, as in a real TCP header with
    timestamps). *)

val acquire_data :
  pool -> flow:int -> src:int -> dst:int -> seq:int -> now:float -> retransmit:bool -> handle
(** A fresh MSS-sized data segment; [retransmit] flags a retransmission. *)

val acquire_ack :
  pool ->
  flow:int ->
  src:int ->
  dst:int ->
  next_expected:int ->
  has_echo:bool ->
  echo_sent_at:float ->
  echo_tx_time:float ->
  ece:bool ->
  now:float ->
  handle
(** A cumulative ACK for [next_expected].  [has_echo] is false when the
    segment that triggered this ACK was a retransmission (Karn's
    algorithm: such ACKs must not produce RTT samples); [echo_sent_at]
    is only meaningful when [has_echo].  [echo_tx_time] is echoed
    unconditionally; FIFO paths make it a precise delivery-order signal
    (RACK-style loss detection).  [ece] echoes an ECN
    congestion-experienced mark (RFC 3168, simulator-grade).  SACK
    ranges start empty; add them with {!add_sack}. *)

val add_sack : pool -> handle -> lo:int -> hi:int -> unit
(** Append a half-open [\[lo, hi)] SACK range of segments held above the
    cumulative ACK (most recent first).  Raises [Invalid_argument] past
    {!max_sack_blocks} ranges. *)

val release : pool -> handle -> unit
(** Return the cell to the free list and bump its generation, making
    every outstanding handle to it stale.  Releasing a stale handle
    (double release / use-after-free) raises [Invalid_argument] — or,
    under the armed sanitizer, records a [packet-double-release]
    violation and continues. *)

(** {2 Field accessors}

    All reads/writes go through the pool.  When the sanitizer is armed,
    each access generation-checks the handle and records a
    [packet-stale-handle] violation on use-after-release. *)

val flow : pool -> handle -> int
(** Globally unique flow identifier. *)

val src : pool -> handle -> int
(** Source node id. *)

val dst : pool -> handle -> int
(** Destination node id. *)

val seq : pool -> handle -> int
val size : pool -> handle -> int
(** Wire size in bytes. *)

val is_data : pool -> handle -> bool

val sent_at : pool -> handle -> float
(** Origination time (set at acquire). *)

val retransmit : pool -> handle -> bool
(** True when this data segment is a retransmission. *)

val ce : pool -> handle -> bool
(** Congestion experienced: set by an ECN-marking queue in place of
    dropping (data packets are always ECN-capable here). *)

val mark_ce : pool -> handle -> unit

val enqueued_at : pool -> handle -> float
(** Bookkeeping for per-queue waiting time. *)

val set_enqueued_at : pool -> handle -> float -> unit

val ack_has_echo : pool -> handle -> bool
val ack_echo_sent_at : pool -> handle -> float
val ack_echo_tx_time : pool -> handle -> float
val ack_ece : pool -> handle -> bool
val sack_count : pool -> handle -> int

val sack_lo : pool -> handle -> int -> int
val sack_hi : pool -> handle -> int -> int
(** Bounds of the i-th SACK range; raise [Invalid_argument] outside
    [0 .. sack_count - 1]. *)

(** {2 Moving a packet between pools}

    A cell is two stripes, [cell_ints] ints and [cell_floats] floats.
    {!export} copies them out and {!import} copies them into a fresh
    cell of another pool, so the copy reads the same through every
    accessor.  A boundary link moves packets across an island cut this
    way. *)

val cell_ints : int
val cell_floats : int

val export : pool -> handle -> int array -> int -> floatarray -> int -> unit
(** [export pool h ints i floats f] copies [h]'s cell into [ints] from
    index [i] and [floats] from index [f].  [h] stays the caller's to
    release. *)

val import : pool -> int array -> int -> floatarray -> int -> handle
(** [import pool ints i floats f] acquires a cell of [pool] and copies
    an exported cell into it from those indices.  The caller owns the
    handle, as after {!acquire_data}. *)

(** {2 Pool introspection} *)

val in_use : pool -> int
(** Cells currently acquired and not yet released.  Returns to zero when
    a simulation drains completely — the leak check the pool tests
    assert. *)

val high_water : pool -> int
(** Maximum simultaneously live cells since creation. *)

(** {2 Handles in engine events} *)

val port : Phi_sim.Engine.t -> (handle -> unit) -> Phi_sim.Engine.port
(** {!Phi_sim.Engine.port} for a handler whose payload is a packet
    handle: a link's delivery event carries the packet it delivers.
    Schedule it with the handle as the payload, [(h :> int)]; the event
    then owns the handle until the handler takes it. *)

(** {2 Handle queues} *)

(** A FIFO of packet handles: {!Phi_sim.Ring}, which holds ints, seen
    through the handle type.  Links queue and propagate their packets in
    one, so no handle is ever boxed or stored through a write barrier. *)
module Fifo : sig
  type t

  val create : unit -> t
  val length : t -> int
  val is_empty : t -> bool

  val push : t -> handle -> unit
  (** Append at the tail. *)

  val pop : t -> handle
  (** Remove and return the head.  Raises [Invalid_argument] when empty. *)

  val peek : t -> handle
  (** Head without removing it.  Raises [Invalid_argument] when empty. *)

  val fold : ('acc -> handle -> 'acc) -> 'acc -> t -> 'acc
  (** Head-to-tail fold over the queued handles. *)
end
