(** The figure printers: one per experiment, shared by the benchmark
    harness ([bench/main.exe]) and [phi-cli], so both binaries print
    every table of the paper's evaluation the same way.

    Every table comes from a {!Columns} list.  The lists exposed here
    are the row types the bench exports: it writes their CSV files and
    report entries from the lists the tables come from, so a table
    header, a CSV column and a report key never disagree.  Printers
    write to stdout and hold no state. *)

val table1 : unit -> unit
val table2 : Sweep.grid -> unit

(** {2 Figures 2a, 2b, 2c and 3: the parameter sweeps} *)

val sweep_columns : (string * Sweep.point) Columns.t list
(** A setting behind its marker (["optimal"], ["default"] or empty). *)

val sweep : Sweep.t -> unit
(** The optimal setting, the six next best by power, and the default. *)

val figure2b_observation : Sweep.t -> unit
val longrun_columns : (float * Sweep.point) Columns.t list

val longrun_summary_columns : n_flows:int -> (float * Sweep.point) list Columns.t list
(** Over all of Figure 2c's rows: the flow count and the queueing delay
    at beta 0.2 and 0.8 ([nan] when not swept). *)

val longrun : n_flows:int -> (float * Sweep.point) list -> unit

val figure3 : (string * Sweep.t) list -> unit
(** Leave-one-out validation of each named sweep. *)

(** {2 Figure 4: incremental deployment} *)

val fraction_sweep : (float * Incremental.group_result * Incremental.group_result) list -> unit

val figure4 :
  optimal:Phi_tcp.Cubic.params ->
  drop_tail:Incremental.result ->
  red:Incremental.result ->
  (float * Incremental.group_result * Incremental.group_result) list ->
  unit
(** The half-and-half split on drop-tail and RED bottlenecks, then the
    {!fraction_sweep}. *)

(** {2 Table 3, the algorithm matrix, Section 2.1 and Figure 5} *)

val table3 : Table3.row list -> unit
val vegas_ablation : Trainer.eval_result -> unit
val matrix_columns : Cc_matrix.row Columns.t list
val matrix : duration_s:float -> seeds:int list -> Cc_matrix.row list -> unit
val sharing_columns : Sharing_experiment.result Columns.t list
val sharing : Sharing_experiment.result -> unit
val figure5_columns : Figure5.result Columns.t list

val figure5_series_columns : Figure5.result -> (int * int) Columns.t list
(** A row is a span [(start_minute, minutes)] of the series, averaged:
    the CSV takes every minute, the table 15-minute bins. *)

val figure5 : Figure5.result -> unit

(** {2 Sections 3.1, 3.2, 3.3 and 3.5} *)

val priority : Priority_experiment.result -> unit

val secure_agg : float list -> int64 list -> barometer:float -> unit
(** The providers' private estimates and masked shares. *)

val predict_columns : Predict_experiment.result Columns.t list
val predict : Predict_experiment.result -> unit
val jitter_columns : Adaptation_experiment.jitter_result Columns.t list
val adaptation : Adaptation_experiment.result -> unit

(** {2 The context-plane swarm and the parallel DES} *)

val swarm_columns : jobs:int -> Swarm.config -> Swarm.result Columns.t list
(** [jobs]: the worker domains the run used. *)

val swarm : jobs:int -> Swarm.config -> Swarm.result -> unit

val pdes_columns : Parking_lot.result -> Parking_lot.result Columns.t list
(** One row per worker count; speedups are against the given serial
    run. *)

val pdes_summary_columns : Parking_lot.spec -> Parking_lot.result list Columns.t list
(** Over the runs at every width, serial first. *)

val pdes : Parking_lot.spec -> Parking_lot.result list -> unit
