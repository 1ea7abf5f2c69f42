(** Discrete-event simulation engine.

    This is the substitute for ns-2's scheduler: a virtual clock plus an
    ordered queue of callbacks.  Events scheduled for the same instant
    run in scheduling order, and every event may be cancelled (needed
    for TCP retransmission timers) or re-armed in place.

    Internally the engine keeps a slab of reusable, generation-stamped
    event cells over a structure-of-arrays 8-ary heap: scheduling,
    firing, cancelling and re-arming allocate nothing beyond the
    caller's own closure, and the per-packet hot paths avoid even that
    via {!port}s — handlers registered once and scheduled by reference.
    The heap holds at most one entry per port and one per live event
    (plus cancelled entries not yet popped): a port's later events wait
    in its FIFO, and {!rearm_after} moves a timer without leaving a dead
    entry behind. *)

type t

type handle
(** Token identifying a scheduled event; used only for cancellation and
    re-arming.  Handles are immediates (no allocation) and are
    generation-checked: a handle whose event has fired, been cancelled
    or re-armed, or whose cell has been recycled for a newer event is
    simply stale — cancelling it is a safe no-op. *)

val null : handle
(** A handle that identifies no event — {!cancel} on it is a no-op.
    Lets callers keep "no timer armed" in a plain [handle] field
    instead of a [handle option], which would box a [Some] on every
    re-arm (the sender's RTO path re-arms once per ACK). *)

val is_null : handle -> bool
(** Recognizes {!null} (and only it among handles this engine ever
    returns). *)

val create : unit -> t
(** Fresh engine with the clock at 0. *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] when the clock reaches [time].
    Raises [Invalid_argument] if [time] is in the past or not finite —
    unless the {!Invariant} sanitizer is armed, in which case the
    anomaly is recorded and [time] is clamped to the current clock so
    the run can continue and report every violation at once. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> handle
(** Relative form of {!schedule_at}; [delay] must be finite and
    non-negative.  Same raise-or-record contract as {!schedule_at}: the
    armed sanitizer records [negative-delay] or [non-finite-time] and
    clamps the delay to 0. *)

(** {2 Closure-free fast path}

    The two dominant event kinds of a packet simulation — link
    transmit-complete and propagation-delivery — fire the same handler
    millions of times.  A {!port} registers that handler exactly once
    in a per-engine table; the [schedule_port_*] functions then enqueue
    its index with zero allocation per event — no closure, no event
    cell, no write barrier.  Port events cannot be cancelled
    individually.

    {b FIFO contract.}  Each port's events must be scheduled in
    nondecreasing time: a port fires in scheduling order.  Only a
    port's earliest pending event sits in the heap; the later ones wait
    in the port's FIFO with the (time, seq) they were scheduled with,
    so the global firing order is exactly that of one heap holding
    them all.  A link obeys this by construction (one packet in
    service; every delivery [delay] after its serialization, clamped to
    the previous delivery when the delay shrinks).  Scheduling a port
    earlier than its latest pending event raises [Invalid_argument] —
    unless the {!Invariant} sanitizer is armed, in which case rule
    [port-fifo] is recorded and the time is clamped to that event's. *)

type port

val null_port : port
(** A placeholder that names no port, for a record field filled in
    once the handler that needs the record is registered.  Scheduling
    it raises [Invalid_argument]. *)

val port : t -> (unit -> unit) -> port
(** Pre-register a reusable handler on this engine.  Build ports at
    component-creation time, never per event (that would grow the
    registry without bound); registrations are permanent.  A port is
    only valid on the engine it was registered with — scheduling it
    elsewhere raises [Invalid_argument]. *)

val schedule_port_at : t -> time:float -> port -> unit
(** Like {!schedule_at} for a pre-registered handler: no closure, no
    handle.  Same time-validation contract, plus the FIFO contract
    above. *)

val schedule_port_after : t -> delay:float -> port -> unit
(** Same delay-validation contract as {!schedule_after}. *)

(** {2 Cancellation and re-arming} *)

val cancel : t -> handle -> unit
(** Cancelled events are skipped when their time comes and their cell is
    recycled immediately.  Cancelling twice, after the event fired, or
    after the cell was recycled is a no-op (generation-checked). *)

val cancelled : t -> handle -> bool
(** Whether the handle is stale: its event fired, was cancelled or was
    re-armed (or it is {!null}). *)

val rearm_after : t -> handle -> delay:float -> (unit -> unit) -> handle
(** [rearm_after t h ~delay f] behaves exactly like
    [cancel t h; schedule_after t ~delay f] — same firing time and order,
    same returned handle, [h] stale afterwards — but when [h] is live
    and the new time is no earlier than its heap entry, the event is
    moved in place instead of leaving a dead entry behind.  The entry
    is re-seated at the new time when it reaches the root.  Re-arming a
    stale or {!null} handle just schedules [f].  Same delay-validation
    contract as {!schedule_after}. *)

(** {2 Running} *)

val pending : t -> int
(** Number of entries in the event heap: one per port with events
    pending (however many wait in its FIFO), one per closure event
    still to fire (re-armed or not), and cancelled entries not yet
    popped.  Zero means nothing is left to run. *)

val executed : t -> int
(** Number of events dispatched since creation (port firings plus live
    cell firings; skipped stale entries and re-seated re-armed ones do
    not count).  The parallel-DES bench aggregates this across island
    engines for its events/s figure, and being a pure function of the
    event sequence it is also a cheap determinism probe. *)

val step : t -> bool
(** Pop the heap's minimum entry: fire it, skip it if it was cancelled,
    or re-seat a re-armed event at its new time.  The clock moves only
    when an event fires.  Returns [false] when the heap is empty. *)

val run : ?until:float -> t -> unit
(** Drain the queue.  With [until], stops once the next event lies
    strictly beyond that time and advances the clock to [until].
    Raises [Invalid_argument] when [until] is NaN or infinite: a NaN
    horizon would never stop a self-rescheduling source, and an
    infinite one would set the clock to infinity once the queue
    drains. *)
