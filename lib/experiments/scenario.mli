(** The scenario runner behind every serial congestion-control
    experiment (Sections 2.2.1–2.2.4 and the WAN matrix).

    One run is one cell: a topology realized with its
    {!Phi_net.Topology.Zoo} description, a load (on/off sources or
    persistent flows), an AQM regime, a dynamics script and a
    measurement window (the whole run, or its second half).  One runner
    builds and runs every cell and one measurement fills the one
    {!result} record.  {!run}, {!run_persistent} and {!run_zoo_cell}
    only choose those inputs. *)

type workload = Phi_tcp.Source.config = {
  mean_on_bytes : float;
  mean_off_s : float;
}
(** The on/off load: {!Phi_tcp.Source}'s configuration. *)

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
      (** on/off load: aggregate on-time throughput over the connection
          records; persistent load: bottleneck delivery rate over the
          window *)
  queueing_delay_s : float;  (** delivery-weighted mean bottleneck queue wait *)
  delay_s : float;  (** base RTT + queueing delay *)
  loss_rate : float;  (** bottleneck drops / packets offered *)
  utilization : float;  (** mean bottleneck busy fraction *)
  power : float;  (** the paper's P_l at [delay_s] *)
  jain : float;  (** Jain fairness over per-source delivered bytes *)
  p99_fct_s : float;  (** 99th-percentile connection duration (0 without records) *)
  connections : int;  (** connection records *)
  flows : int;  (** primary flow paths in the topology *)
  records : Phi_tcp.Flow.conn_stats list;
}
(** The one result record.  Link figures cover the measurement window;
    Jain covers the flow paths and any flash-crowd sources. *)

val mean : result array -> result
(** The seed mean of one cell's results, given in seed order: every
    float field is the {!Phi_util.Stats.mean} over the seeds,
    [connections] their sum, [flows] the first seed's, and [records]
    every seed's records in seed order, so [connections] is still the
    length of [records].  Raises [Invalid_argument] on an empty
    array. *)

val run :
  ?cc_factory:(int -> unit -> Phi_tcp.Cc.t) ->
  ?on_conn_end:(Phi_tcp.Flow.conn_stats -> unit) ->
  ?observe:(Phi_sim.Engine.t -> Phi_net.Topology.dumbbell -> unit) ->
  config ->
  result
(** The paper's cells: [config.spec]'s dumbbell, one on/off source per
    sender at [config.workload], drop-tail, no dynamics, measured over
    the whole run, charging [spec.rtt_s] as the base RTT.  [cc_factory
    index] builds the controller for each new connection of sender
    [index] (default: Cubic with default parameters).  [observe] runs
    right after topology construction — the hook for attaching monitors
    or context servers.  Raises [Invalid_argument] unless
    [config.duration_s] is finite and positive; {!run_persistent} and
    {!run_zoo_cell} check theirs the same way. *)

val run_persistent :
  ?cc_factory:(int -> unit -> Phi_tcp.Cc.t) ->
  n_flows:int ->
  duration_s:float ->
  spec:Phi_net.Topology.spec ->
  seed:int ->
  unit ->
  result
(** Figure 2c's setting: [n_flows] long-running connections over
    [spec]'s dumbbell (one per sender/receiver pair, [spec.n] forced to
    [n_flows]; [cc_factory index] builds sender [index]'s controller,
    default Cubic with default parameters), drop-tail, no dynamics,
    measured over the second half of the run to skip the start-up
    transient, charging [spec.rtt_s] as the base RTT.  Throughput is
    the bottleneck's delivery rate; [records] are the senders' stats at
    the end of the run, in sender order.  The run up to any instant
    does not depend on [duration_s], so a run of half the duration
    snapshots the first half exactly. *)

val persistent_senders :
  ?cc_factory:(int -> unit -> Phi_tcp.Cc.t) ->
  Phi_net.Topology.built ->
  rng:Phi_util.Prng.t ->
  Phi_net.Topology.Zoo.flow_path array ->
  Phi_tcp.Sender.t array
(** One receiver and one persistent sender per flow path, on the path's
    nodes and their engines.  Path [i] carries flow id and source index
    [i], and [cc_factory i] builds its controller (default Cubic with
    default parameters).  Each sender then starts after a
    [Prng.float rng] delay, drawn in path order, so the starts spread
    over the first second. *)

(** {2 Zoo cells}

    One call is one cell of the WAN evaluation matrix, so fanning cells
    over a worker pool is deterministic. *)

type aqm = Drop_tail | Red | Red_ecn
(** Queue regime applied to the topology's bottleneck links:
    FIFO drop-tail (the paper's setting), RED, or RED with
    ECN marking. *)

val aqm_name : aqm -> string

val aqm_names : string list
(** The registry: ["droptail"; "red"; "red_ecn"]. *)

val aqm_by_name : string -> aqm
(** Raises [Invalid_argument] on an unknown name. *)

val run_zoo_cell :
  ?cc_factory:(int -> unit -> Phi_tcp.Cc.t) ->
  ?aqm:aqm ->
  ?dynamics:Dynamics.t ->
  ?duration_s:float ->
  ?seed:int ->
  ?on_conn_end:(Phi_tcp.Flow.conn_stats -> unit) ->
  ?observe:(Phi_sim.Engine.t -> Phi_net.Topology.built -> unit) ->
  Phi_net.Topology.Zoo.t ->
  result
(** Run one matrix cell (defaults: drop-tail, steady dynamics, 30 s,
    seed 1), measured over the second half of the run and charging the
    flow paths' mean RTT as the base RTT.  Every flow path runs an
    on/off source at 300 KB mean transfers and 0.5 s mean idle, busy
    enough that every zoo bottleneck sees contention within a 30 s
    cell.  The topology is realized serially through [Topology.build],
    and the dynamics act on the zoo's bottleneck links, its
    [incast_sink] and [incast_sources], and its flow paths (a flash
    crowd adds [(multiplier - 1)] sources per path).  [Dynamics.check]
    runs before anything is built, and all transport before the run
    starts, so the cell is a pure function of its parameters.
    [observe] runs right after topology realization (the hook for
    attaching context servers); [on_conn_end] fires for every completed
    primary or flash-crowd connection. *)

type zoo_result = {
  z_throughput_bps : float;
  z_queueing_delay_s : float;
  z_delay_s : float;
  z_loss_rate : float;
  z_utilization : float;
  z_power : float;
  z_jain : float;
  z_p99_fct_s : float;
  z_connections : int;
  z_flows : int;
  z_records : Phi_tcp.Flow.conn_stats list;
}
(** {!result}'s fields under a [z_] prefix.  It exists only because
    perfbench's [wan_remyphi_flap] workload reads it; the next change
    to the benchmark deletes it together with {!run_zoo}. *)

val run_zoo :
  ?cc_factory:(int -> unit -> Phi_tcp.Cc.t) ->
  ?aqm:aqm ->
  ?dynamics:Dynamics.t ->
  ?duration_s:float ->
  ?seed:int ->
  ?on_conn_end:(Phi_tcp.Flow.conn_stats -> unit) ->
  ?observe:(Phi_sim.Engine.t -> Phi_net.Topology.built -> unit) ->
  Phi_net.Topology.Zoo.t ->
  zoo_result
(** {!run_zoo_cell}, projected onto {!zoo_result} for perfbench. *)
