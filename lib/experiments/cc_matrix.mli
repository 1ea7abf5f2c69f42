(** The algorithm matrix: every selected congestion-control algorithm
    in every cell of a list, one seeded run per (algorithm, cell, seed).

    The CoCo-Beholder-style harness of the unified control plane: one
    sender transport, algorithms selected through the {!Phi.Cc_algo}
    registry and wired by {!Cc_select.wire}, one row layout.  A cell is
    either one of the paper's dumbbell loads, measured whole-run by
    {!Scenario.run}, or a topology zoo x dynamics x AQM combination run
    by {!Scenario.run_zoo_cell}; both return the one {!Scenario.result},
    which fills the row.  Cells travel to pool workers as immutable
    descriptions — a zoo cell as names, materialized inside the worker
    — so the matrix is jobs-invariant. *)

type cell =
  | Paper of [ `Low | `High ]
      (** Figure 2a's ({!Scenario.low_utilization}) or Figure 2b's
          ({!Scenario.high_utilization}) load on the paper dumbbell *)
  | Zoo of { topology : string; dynamics : string; aqm : Scenario.aqm }
      (** {!Phi_net.Topology.Zoo.names} x {!Dynamics.names} entries *)

val paper_cells : cell list
(** [[Paper `Low; Paper `High]], named ["low"] and ["high"]. *)

val default_topologies : string list
(** [["dumbbell"; "parking_lot"; "wan"]] — the three structurally
    distinct classes; add ["fat_tree_pod"] for the full zoo. *)

val default_dynamics : string list
(** [["steady"; "flap"; "incast"]] — baseline, link-level adversity,
    workload-level adversity. *)

val zoo_cells : aqm:Scenario.aqm -> topologies:string list -> dynamics:string list -> cell list
(** Every topology x dynamics combination, topology-major. *)

type row = {
  algorithm : string;  (** registry name *)
  cell : string;  (** the paper load's name, or ["topology/dynamics"] *)
  aqm : string;  (** {!Scenario.aqm_names} entry (["droptail"] on the paper dumbbell) *)
  throughput_bps : float;  (** aggregate on-time throughput *)
  delay_s : float;  (** base RTT + queueing delay *)
  queueing_delay_s : float;
  loss_rate : float;
  power : float;  (** the paper's P_l *)
  jain : float;  (** Jain fairness over per-source delivered bytes *)
  p99_fct_s : float;  (** 99th-percentile flow completion time *)
  connections : int;  (** total completed connections across seeds *)
}
(** Every float is a mean over seeds.  Paper cells take their link
    figures whole-run, zoo cells over the second half. *)

val run :
  ?jobs:int ->
  ?algorithms:Phi.Cc_algo.t list ->
  ?remy_table:Phi_remy.Rule_table.t ->
  ?remy_phi_table:Phi_remy.Rule_table.t ->
  ?duration_s:float ->
  seeds:int list ->
  cell list ->
  row list
(** Rows come back algorithm-major, then in cell order (default
    [algorithms]: {!Phi.Cc_algo.all}).  [duration_s] overrides every
    cell's duration (default: a paper load's own, 30 s for a zoo
    cell).  Unknown topology or dynamics names raise
    [Invalid_argument] before any work fans out.  Results are identical
    for every [jobs] value. *)
