(** Offline Remy training (TCP ex machina, Section 2.2.4 of the Phi
    paper): improve a whisker table by simulation.

    The optimizer is a simplified form of Remy's: repeatedly evaluate the
    table on the training scenarios, pick the most-used whisker, improve
    its action by greedy coordinate descent on the mean objective, then
    split it so later rounds refine the busy region of memory space.  The
    objective per connection is Remy's log network power,
    [ln (throughput_Mbps / mean_rtt_s)]. *)

val default_scenarios : Scenario.config list
(** {!Scenario.table3} (the paper dumbbell, 100 KB mean transfers,
    0.5 s idle, 60 s) plus lighter and heavier workload variations,
    mirroring the "range of network and traffic parameters" the paper
    retrained over; the spread of load levels is what lets the Phi
    utilization dimension earn its keep. *)

type eval_result = {
  objective : float;  (** mean per-connection log power (the training signal) *)
  median_objective : float;
  median_throughput_bps : float;
  median_queueing_delay_s : float;
  connections : int;
}

val summarize : Phi_tcp.Flow.conn_stats list -> eval_result
(** Remy's objective over connection records: the per-connection log
    power [ln (throughput_Mbps / mean_rtt_s)] ({!Phi.Metric.log_power})
    and the medians Table 3 reports.  Connections without a positive
    throughput, an RTT sample or a sane queueing delay drop out of the
    respective statistic; an empty statistic is [nan] ([neg_infinity]
    for the mean objective, so training never prefers it). *)

val remy :
  ?counts:int array ->
  table:Phi_remy.Compiled_table.t ->
  [ `None | `Ideal ] ->
  (Phi_sim.Engine.t -> Phi_net.Topology.dumbbell -> unit) * (int -> unit -> Phi_tcp.Cc.t)
(** [(observe, cc_factory)] for {!Scenario.run}: every sender runs
    Remy on [table].  [`Ideal] is the training-time oracle: [observe]
    attaches a bottleneck monitor whose live utilization every
    controller reads (the table must then be 4-dimensional).
    [counts] is forwarded to {!Phi_remy.Remy_cc.make}. *)

val evaluate :
  ?counts:int array ->
  table:Phi_remy.Rule_table.t ->
  util:[ `None | `Ideal ] ->
  seeds:int list ->
  Scenario.config list ->
  eval_result
(** Run every (scenario, seed) pair through {!Scenario.run} with
    {!remy} controllers (each scenario's own seed is replaced) and
    {!summarize} the pooled records.  The table is compiled once
    ({!Phi_remy.Compiled_table.compile}) and every simulated ack goes
    through the flat lookup.  [counts], when given, must have at least
    [Rule_table.size table] slots: slot [i] is incremented for every
    ack-path lookup resolving to whisker [i] — the trainer's usage
    signal, owned by the caller now that table lookups are pure. *)

type budget = {
  rounds : int;  (** optimize-and-split rounds *)
  seeds : int list;  (** training seeds per evaluation *)
  max_passes : int;  (** coordinate-descent sweeps per whisker *)
  whiskers_per_round : int;  (** how many of the busiest whiskers to optimize each round *)
}

val default_budget : budget
(** 6 rounds, 2 seeds, 3 passes, 2 whiskers per round — minutes of CPU,
    enough to beat Cubic on the paper topology. *)

val train :
  ?log:(string -> unit) ->
  table:Phi_remy.Rule_table.t ->
  util:[ `None | `Ideal ] ->
  scenarios:Scenario.config list ->
  budget ->
  eval_result
(** Mutates [table] in place; returns the final evaluation. *)

val refine_utilization :
  ?log:(string -> unit) ->
  table:Phi_remy.Rule_table.t ->
  scenarios:Scenario.config list ->
  top:int ->
  budget ->
  eval_result
(** The Phi-specific training step: bisect the [top] busiest whiskers of a
    4-dimensional table along the utilization axis and re-optimize the
    resulting halves independently, letting the policy diverge between
    idle and busy network conditions.  Typical use: extrude a trained
    classic table, then refine. *)
