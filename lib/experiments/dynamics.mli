(** Scripted adversarial dynamics for the scenario plane.

    A regime is data: a named description of how the network or the
    workload misbehaves over a run.  {!install} compiles the link-level
    regimes (flaps, RTT jitter) into engine-scheduled events against a
    topology's bottleneck links; the workload-level regimes (incast
    bursts, flash crowds) are interpreted by the scenario runner, which
    owns the transport.  Everything is deterministic: events are
    scheduled through the same engine that runs the traffic, and the
    only randomness comes from the seeded [rng] handed to {!install},
    so a (topology, regime, seed) cell replays bit-identically whether
    it runs inline or inside a pool worker. *)

type t =
  | Steady  (** no dynamics — the baseline column of the matrix *)
  | Link_flap of { period_s : float; down_s : float }
      (** every [period_s] a bottleneck link (rotating over them) goes
          administratively down for [down_s] seconds *)
  | Rtt_jitter of { period_s : float; magnitude : float }
      (** every [period_s] each bottleneck's propagation delay is
          re-drawn uniformly within [±magnitude] of its base value *)
  | Incast of { period_s : float; fan_in : int; burst_segments : int }
      (** every [period_s], [fan_in] hosts simultaneously fire a
          [burst_segments]-segment transfer at one sink *)
  | Flash_crowd of { at_frac : float; multiplier : int }
      (** at [at_frac] of the run, the number of active sources jumps
          to [multiplier] times the baseline *)

val steady : t

val default_flap : t
(** 250 ms outage every 4 s. *)

val default_jitter : t
(** ±30% delay re-draw every 500 ms. *)

val default_incast : t
(** 8-way, 64-segment synchronized burst every 3 s. *)

val default_flash_crowd : t
(** Offered load triples at the half-way point. *)

val name : t -> string

val names : string list
(** The registry: ["steady"; "flap"; "jitter"; "incast"; "flash_crowd"]. *)

val by_name : string -> t
(** Default-parameter lookup — how matrix cells materialize a regime
    inside a pool worker from its name alone.  Raises
    [Invalid_argument] on an unknown name. *)

val check : t -> unit
(** Raises [Invalid_argument], naming the regime and the field, unless
    every period is finite and positive, 0 < [down_s] < [period_s],
    [magnitude] and [at_frac] are at least 0 and below 1, and every
    count is at least 1 (NaN is never in range).  The scenario runner
    calls it before it builds anything. *)

(** {2 Script combinators}

    The primitives every dynamics script is built from.  phi-lint
    treats callbacks passed to these as pool-reachable entry points
    (like [Pool.map] bodies), so a script body that touches shared
    mutable state without a lock is flagged. *)

val at : Phi_sim.Engine.t -> time:float -> (unit -> unit) -> unit
(** Run the callback at the absolute simulation [time]. *)

val every :
  Phi_sim.Engine.t ->
  start_s:float ->
  period_s:float ->
  until_s:float ->
  (int -> unit) ->
  unit
(** Run the callback at [start_s], [start_s + period_s], ... while the
    tick time is [<= until_s], passing the tick index from 0.  Each
    tick schedules the next, so cancellation is simply the engine
    draining at [until_s]. *)

val install :
  engine:Phi_sim.Engine.t ->
  rng:Phi_util.Prng.t ->
  bottlenecks:Phi_net.Link.t array ->
  duration_s:float ->
  t ->
  unit
(** Schedule the link-level regimes ({!Link_flap}, {!Rtt_jitter})
    against the given bottleneck links.  {!Steady} and the
    workload-level regimes are no-ops here.  Raises
    [Invalid_argument] as {!check} does. *)
