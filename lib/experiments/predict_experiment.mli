(** Section 3.5: performance prediction from aggregate history.

    Synthetic ground truth: each /16 region has a latent performance
    level; its /24s vary around it.  A training stream of transfer
    observations feeds the hierarchical predictor; held-out observations
    score it against the naive single-global-median predictor a host
    without shared history would effectively use. *)

type result = {
  prefixes : int;
  training_samples : int;
  test_samples : int;
  hierarchical_mape : float;
      (** median absolute relative error of the throughput prediction *)
  global_mape : float;  (** the same for the global-median baseline *)
  cold_prefixes_served : int;
      (** test predictions that had to fall back above the /24 level *)
  example_mos : (string * float) list;
      (** illustrative (path label, predicted MOS) pairs *)
}

val run : seed:int -> unit -> result
(** 8 /16 regions x 32 /24s, ~20 training samples per /24. *)
