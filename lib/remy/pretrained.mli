(** Trained rule tables shipped with the library.

    Both tables were produced by [Phi_experiments.Trainer.train] on
    [Phi_experiments.Trainer.default_scenarios] (the [train-remy]
    command of [bin/phi_cli.ml] is the exact invocation) and embedded
    here so Table 3 reproduces without a training run.  Retrain and
    re-embed with [phi-cli train-remy]. *)

val remy : unit -> Rule_table.t
(** Classic 3-dimensional Remy table. *)

val remy_phi : unit -> Rule_table.t
(** 4-dimensional table whose memory includes bottleneck utilization
    (trained with the ideal, up-to-the-minute feed, as in the paper). *)
