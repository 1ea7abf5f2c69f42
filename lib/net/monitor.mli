(** Periodic link utilization sampler.

    Samples a link on a fixed interval and keeps the busy fraction of
    the most recently completed bin.  This is the oracle feeding
    "up-to-the-minute" bottleneck utilization to Remy-Phi-ideal senders
    (Section 2.2.4); the reproduced figures measure links through
    {!Link}'s own counters, not through a monitor. *)

type t

val create : Phi_sim.Engine.t -> Link.t -> interval_s:float -> t
(** Starts sampling immediately; one sample is taken at the end of each
    interval, for the rest of the run. *)

val current_utilization : t -> float
(** Utilization of the most recently completed bin (0 before the first
    bin closes). *)
