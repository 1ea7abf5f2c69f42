(** Shared dumbbell scenario runner for the congestion-control
    experiments (Sections 2.2.1–2.2.4).

    One run = one seeded simulation of [n] on/off senders over the Figure
    1 dumbbell, yielding the aggregate measurements every figure and table
    is built from. *)

type workload = {
  mean_on_bytes : float;
  mean_off_s : float;
}

type config = {
  spec : Phi_net.Topology.spec;
  workload : workload;
  duration_s : float;
  seed : int;
}

val low_utilization : config
(** Figure 2a's setting: 8 senders, 500 KB mean transfers, 2 s mean idle
    (~50–60 % bottleneck utilization). *)

val high_utilization : config
(** Figure 2b's setting: same transfers, 0.3 s mean idle (~85–95 %). *)

val table3 : config
(** Table 3's setting: 100 KB mean transfers, 0.5 s mean idle. *)

type result = {
  throughput_bps : float;
      (** aggregate on-time throughput: total bits over total "on" time *)
  queueing_delay_s : float;  (** mean per-packet wait in the bottleneck queue *)
  loss_rate : float;  (** bottleneck drops / packets offered *)
  utilization : float;  (** bottleneck busy fraction over the run *)
  power : float;  (** the paper's P_l, with delay = base RTT + queueing delay *)
  connections : int;
  records : Phi_tcp.Flow.conn_stats list;
}

val power_of : spec:Phi_net.Topology.spec -> throughput_bps:float -> loss_rate:float -> queueing_delay_s:float -> float
(** The P_l formula used everywhere: throughput (Mbps) times delivery rate
    over (base RTT + queueing delay). *)

val run :
  ?cc_factory:(int -> unit -> Phi_tcp.Cc.t) ->
  ?on_conn_end:(Phi_tcp.Flow.conn_stats -> unit) ->
  ?observe:(Phi_sim.Engine.t -> Phi_net.Topology.dumbbell -> unit) ->
  config ->
  result
(** Run the scenario.  [cc_factory index] builds the controller for each
    new connection of sender [index] (default: Cubic with default
    parameters).  [observe] runs right after topology construction — the
    hook for attaching monitors or context servers.  Raises
    [Invalid_argument] unless [config.duration_s] is finite and
    positive; {!run_persistent} and {!run_zoo} check theirs the same
    way. *)

val run_persistent :
  ?cc_factory:(int -> unit -> Phi_tcp.Cc.t) ->
  n_flows:int ->
  duration_s:float ->
  spec:Phi_net.Topology.spec ->
  seed:int ->
  unit ->
  result
(** Figure 2c's setting: [n_flows] long-running connections (one per
    sender/receiver pair, [spec.n] forced to [n_flows]; [cc_factory
    index] builds sender [index]'s controller, default Cubic with
    default parameters), measured over the second half of the run to
    skip the start-up transient.  Throughput is the aggregate delivery
    rate; [records] are the senders' stats at the end of the run, in
    sender order.  The run up to any instant does not depend on
    [duration_s], so a run of half the duration snapshots the first
    half exactly. *)

val jain : n_sources:int -> Phi_tcp.Flow.conn_stats list -> float
(** Jain fairness over the bytes each source index in [0, n_sources)
    delivered ([1.] without sources). *)

val p99_fct_s : Phi_tcp.Flow.conn_stats list -> float
(** 99th-percentile connection duration ([0.] without records). *)

(** {2 The generalized scenario plane}

    [run_zoo] evaluates topology x workload x dynamics x AQM: one call
    is one cell of the WAN evaluation matrix.  Cells are pure functions
    of their parameters (seeded rng, engine-scheduled dynamics), so
    fanning them over a worker pool is deterministic. *)

type aqm = Drop_tail | Red | Red_ecn
(** Queue regime applied to the topology's bottleneck links:
    FIFO drop-tail (the paper's setting), RED, or RED with
    ECN marking. *)

val aqm_name : aqm -> string

val aqm_names : string list
(** The registry: ["droptail"; "red"; "red_ecn"]. *)

val aqm_by_name : string -> aqm
(** Raises [Invalid_argument] on an unknown name. *)

type zoo_result = {
  z_throughput_bps : float;
      (** aggregate on-time throughput over the whole run (the Pareto
          throughput coordinate) *)
  z_queueing_delay_s : float;
      (** delivery-weighted mean queue wait across the bottleneck
          links, second-half window *)
  z_delay_s : float;
      (** mean base path RTT + queueing delay (the Pareto delay
          coordinate) *)
  z_loss_rate : float;  (** bottleneck drops / offered, second-half window *)
  z_utilization : float;  (** mean bottleneck busy fraction, second-half window *)
  z_power : float;  (** the paper's P_l at [z_delay_s] *)
  z_jain : float;  (** Jain fairness over per-source delivered bytes *)
  z_p99_fct_s : float;
      (** 99th-percentile flow completion time over finished
          connections (0 when none finished) *)
  z_connections : int;  (** connections that completed during the run *)
  z_flows : int;  (** primary flow paths in the topology *)
  z_records : Phi_tcp.Flow.conn_stats list;
}

val default_zoo_workload : workload
(** 300 KB mean transfers, 0.5 s mean idle — busy enough that every
    zoo bottleneck sees contention within a 30 s cell. *)

val run_zoo :
  ?cc_factory:(int -> unit -> Phi_tcp.Cc.t) ->
  ?aqm:aqm ->
  ?dynamics:Dynamics.t ->
  ?workload:workload ->
  ?duration_s:float ->
  ?seed:int ->
  ?on_conn_end:(Phi_tcp.Flow.conn_stats -> unit) ->
  ?observe:(Phi_sim.Engine.t -> Phi_net.Topology.built -> unit) ->
  Phi_net.Topology.Zoo.t ->
  zoo_result
(** Run one matrix cell (defaults: drop-tail, steady dynamics,
    {!default_zoo_workload}, 30 s, seed 1).  The topology is realized
    serially through [Topology.build]; link-level dynamics are
    installed via [Dynamics.install] on the zoo's bottleneck links;
    incast bursts converge on the zoo's [incast_sink] from its
    [incast_sources]; flash crowds start [(multiplier - 1)] extra
    sources per flow path at the scripted instant.  All transport is
    constructed before the run starts, so the rng draw order — and
    hence the cell — is a pure function of the parameters.
    [observe] runs right after topology realization (the hook for
    attaching context servers); [on_conn_end] fires for every
    completed primary or flash-crowd connection. *)
