(** Runtime invariant sanitizer for simulation runs.

    A silent NaN in a reported metric or a non-monotonic event clock
    corrupts every experiment downstream, so the hot paths of the
    engine, links, TCP senders and the context server carry cheap
    invariant checks that are compiled in but dormant by default.
    Setting [PHI_SANITIZE=1] in the environment arms them; violations
    are then accumulated into a global report instead of aborting the
    run, so a single sweep surfaces every breakage at once.

    Checks performed when armed:
    - [non-finite-time], [time-in-past], [negative-delay]: scheduling
      anomalies (recorded, then clamped to "now" so the run proceeds).
    - [port-fifo]: a port scheduled earlier than its latest pending
      event (recorded, then clamped to that event's time).
    - [event-time-monotonic]: the engine popped an event timestamped
      before the current clock.
    - [link-conservation], [byte-conservation], [queue-occupancy]:
      per-link packet/byte accounting.
    - [cwnd-bound]: a congestion window below 1 packet, NaN, or above a
      configured buffer+BDP bound.
    - [metric-finite], [metric-range], [conn-stats]: NaN/Inf or
      out-of-range values in metrics reported to the context server.

    The accumulator is process-global; tests use {!with_capture} to arm
    the sanitizer for one closure and inspect exactly the violations it
    produced.

    {2 Domain-safety}

    Simulation state is per-run — engine, topology, flows and PRNG are
    all constructed from the seed inside one run and never shared, which
    is what lets [Phi_runner.Pool] fan (setting, seed) cells across
    domains.  This module is the deliberate exception: the violation
    accumulator is process-global, and armed runs ([PHI_SANITIZE=1] or
    {!set_enabled}) may record from several domains at once ([Pool]
    does not force one worker).  {!record} therefore takes a mutex
    when armed, so {!count} stays exact; across domains the kept
    prefix holds violations in arrival order, which follows
    scheduling.  The parallel engine, the parking-lot experiment and
    the bench driver still run armed runs serially.  When dormant (the
    default) the checks only read {!enabled} and record nothing.  The
    phi-lint [domain-global] rule guards against introducing further
    shared mutable globals under [lib/experiments] and [lib/runner]. *)

type violation = {
  rule : string;  (** stable rule name, e.g. ["negative-delay"] *)
  time : float;  (** virtual time at which the violation was observed *)
  detail : string;
}

val enabled : unit -> bool
(** Whether checks are armed.  Initialised from [PHI_SANITIZE=1]; can be
    overridden with {!set_enabled}. *)

val armed : bool ref
(** The flag behind {!enabled}, exposed so per-event hot paths (the
    engine's step loop) can test it with a single load instead of a
    cross-module call.  Read-only outside this module: flip it with
    {!set_enabled} (or {!with_capture}), never by assignment. *)

val set_enabled : bool -> unit

val record : rule:string -> time:float -> string -> unit
(** Accumulate one violation.  No-op when disabled; safe to call from
    several domains when armed.  At most 1000 violations are kept;
    further ones only bump {!count}. *)

val violations : unit -> violation list
(** Accumulated violations, oldest first. *)

val count : unit -> int
(** Total violations recorded, including any beyond the kept cap. *)

val clear : unit -> unit

val report : unit -> string
(** Human-readable multi-line report; empty string when clean. *)

val with_capture : (unit -> 'a) -> 'a * violation list
(** [with_capture f] arms the sanitizer, runs [f] against a fresh
    accumulator, and returns [f]'s result with the violations it
    recorded.  The previous enabled state and accumulator are restored
    afterwards, even on exception. *)
