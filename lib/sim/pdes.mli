(** Conservative parallel discrete-event simulation coordinator.

    Partition a topology into {e islands} — disjoint sub-simulations,
    each with its own {!Engine} — connected only by latency links, and
    advance all islands in lock-step windows across OCaml domains.  A
    cross-island link's propagation delay is {e lookahead}: anything an
    island emits at time [t] reaches its neighbour no earlier than
    [t + delay], so with a window [W] no larger than the minimum
    lookahead every island may execute a whole window in parallel
    without ever receiving an event in its past (the conservative
    Chandy–Misra–Bryant argument, with a shared window in place of null
    messages).

    The schedule per window [k] is: every island executes events up to
    [(k+1) * W] and publishes that horizon through an [Atomic]; a
    barrier; every island drains its inbound boundary outboxes (in
    registration order), scheduling the deliveries that arrived from
    its neighbours; a second barrier; next window.  Because islands
    share no mutable state inside a window and all cross-island
    scheduling happens in the fixed-order drain phase, each island's
    event sequence — including the engine's FIFO tie-break numbering —
    is byte-identical whatever the worker count: [run ~jobs:1] is the
    golden reference and [~jobs:n] must replay it exactly.

    The same rule holds at the cache-line level: every per-island
    block that a window writes on every event (the engine's clock and
    scratch slots and its per-event counters, the packet pool's record)
    keeps at least a cache line between its live words and any
    neighbour, so two domains never write one line.

    The barrier blocks on a mutex/condition pair rather than spinning,
    so oversubscribed runs (more workers than cores) degrade gracefully
    instead of starving the island they wait for.

    The partition comes from the topology declaration, not from this
    module: [Phi_net.Topology.build_partitioned] adds one island per
    island the declaration names, in index order.  Cross-island traffic itself is carried
    by [Phi_net.Boundary_link], which registers its drains here via
    {!on_drain} and its propagation delay via {!note_lookahead}. *)

type t
(** A coordinator: a set of islands plus the window barrier state. *)

type island
(** One partition: an engine of its own plus its inbound boundary
    drains.  Islands must never touch another island's engine, pools or
    state except through a boundary link's outbox. *)

val create : unit -> t
(** A coordinator with no islands yet. *)

val add_island : t -> island
(** Append a fresh island (with a fresh engine).  Island construction
    and all topology wiring happen serially, before {!run}. *)

val engine : island -> Engine.t
(** The island's private engine; all of the island's components are
    built on it. *)

val index : island -> int
(** Position of the island in creation order, starting at 0. *)

val islands : t -> int
(** Number of islands added so far. *)

val on_drain : island -> (unit -> unit) -> unit
(** Register a between-windows callback on the {e destination} island
    of a boundary: it runs at every window barrier (and once more at
    the end of the run), with every other island quiescent, and is
    where a boundary link moves handed-off traffic from its outbox
    into the island's engine.  Callbacks run in registration order —
    that order is part of the determinism contract. *)

val note_lookahead : t -> float -> unit
(** Record a boundary's propagation delay.  {!run} refuses any window
    larger than the minimum recorded lookahead — that bound is what
    makes the window scheme conservative.  Raises [Invalid_argument]
    unless positive and finite. *)

val lookahead_s : t -> float
(** Minimum lookahead registered so far ([infinity] when no boundary
    has registered — an unpartitioned run needs no windows). *)

val horizon_s : island -> float
(** The island's published execution horizon: virtual time it has
    completed up to.  Boundary drains read their peer's horizon to
    assert the conservative bound. *)

val run : ?jobs:int -> ?window_s:float -> until:float -> t -> unit
(** Advance every island to virtual time [until].  [jobs] worker
    domains (default: one per island, capped at the island count; the
    calling domain is worker 0) each own the islands with
    [index mod jobs = worker]; ownership affects load balance only,
    never results.  [window_s] defaults to the minimum registered
    lookahead and must not exceed it.  When the {!Invariant} sanitizer
    is armed the run is forced serial, so that its violations are
    recorded in one replayable order: {!Invariant.record} is safe from
    any domain, but across domains the order of its records would
    depend on scheduling.  A worker exception aborts the remaining
    windows and is re-raised after all domains join.

    Raises [Invalid_argument] on an empty coordinator, a non-finite or
    negative [until], [jobs < 1], or a [window_s] that is not positive
    or exceeds the lookahead bound. *)
