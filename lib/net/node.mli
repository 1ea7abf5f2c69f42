(** Forwarding nodes.

    A node either consumes a packet addressed to it (dispatching on the
    flow id to the handler a sender/receiver registered) or forwards it on
    the link its routing table maps the destination to.  This is all the
    routing the paper's dumbbell experiments need, while staying general
    enough for arbitrary topologies.

    Neither lookup hashes.  Node ids are dense declaration indices
    ({!Topology}), so routes live in an array indexed by destination id
    that grows as routes are declared.  Flow handlers live in a slot
    table indexed by [flow land (capacity - 1)]: a delivery costs one
    mask, one load and one compare.  The table starts with one slot and
    doubles whenever two bound flows would share a slot, so it is sized
    by the node's own flows, not by the simulation's flow count.

    Nodes speak pool handles: [receive] consumes the handle it is given —
    a locally delivered packet is released back to the pool after its
    flow handler returns (handlers copy fields out and must not retain
    the handle), and a forwarded packet's ownership passes to
    [Link.send]. *)

type t

val create : Packet.pool -> id:int -> t
(** All packets this node touches must come from the given pool (one
    pool per simulation; topology builders handle this).  Raises
    [Invalid_argument] when [id] is negative. *)

val id : t -> int

val pool : t -> Packet.pool
(** The packet pool this node (and its whole topology) uses.  Senders
    and receivers acquire their outgoing packets here. *)

val add_route : t -> dst:int -> Link.t -> unit
(** Route packets destined to node [dst] out of the given link.  Replaces
    any previous route for [dst].  Raises [Invalid_argument] when [dst]
    is negative. *)

val set_default_route : t -> Link.t -> unit
(** Fallback when no per-destination route matches. *)

val bind_flow : t -> flow:int -> (Packet.handle -> unit) -> unit
(** Local delivery handler for packets of [flow] addressed to this node,
    replacing any handler [flow] already has.  The handle is only valid
    for the duration of the call — the node releases it when the handler
    returns.  Raises [Invalid_argument] when [flow] is negative. *)

val unbind_flow : t -> flow:int -> unit
(** Raises [Invalid_argument] when [flow] is negative. *)

val receive : t -> Packet.handle -> unit
(** Entry point used by links (and by local senders to originate traffic).
    Consumes the handle.  Packets addressed to this node with no bound
    flow are counted and released; packets with no route are released,
    counted, and raise [Invalid_argument]. *)

val unroutable_drops : t -> int
val unclaimed_deliveries : t -> int
