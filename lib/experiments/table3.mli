(** Table 3 (Section 2.2.4): Remy with and without Phi's shared
    utilization signal, against Cubic, on the paper dumbbell.

    Four rows: [Remy-Phi-practical] (utilization looked up at connection
    start from a context server fed by end-of-connection reports),
    [Remy-Phi-ideal] (up-to-the-minute utilization from a bottleneck
    monitor), classic [Remy], and default-parameter [Cubic].  Metrics are
    per-connection medians, pooled across seeds: throughput, queueing
    delay (the connection's [mean_rtt - min_rtt]) and Remy's objective
    [ln (throughput_Mbps / mean_rtt)]. *)

type row = {
  name : string;
  summary : Trainer.eval_result;  (** {!Trainer.summarize} of the seeds' pooled records *)
  server_messages : int;
      (** context-server lookups + reports (the coordination overhead);
          0 for non-Phi rows *)
}

val paper_rows : (string * float * float * float) list
(** The published numbers, [(name, Mbps, delay_ms, objective)], for
    side-by-side printing in EXPERIMENTS.md. *)

val run :
  ?jobs:int ->
  ?remy_table:Phi_remy.Rule_table.t ->
  ?remy_phi_table:Phi_remy.Rule_table.t ->
  seeds:int list ->
  Scenario.config ->
  row list
(** Tables default to the pretrained ones shipped in
    {!Phi_remy.Pretrained}.  Rows come back in the paper's order.
    [(variant, seed)] cells fan out over a {!Phi_runner.Pool} with [jobs]
    workers (default: core count); results are identical for every
    [jobs] value. *)
