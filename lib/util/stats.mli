(** Descriptive statistics over float samples.

    Used throughout the experiment harness: medians for Table 3, means and
    percentiles for the sweep scatter plots, CDFs for the Section 2.1
    path-sharing statistic. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on empty input. *)

val variance : float array -> float
(** Unbiased sample variance (0 for singleton samples). *)

val stddev : float array -> float

val minimum : float array -> float
val maximum : float array -> float

val percentile : float array -> p:float -> float
(** [percentile xs ~p] with [p] in [\[0, 100\]], linear interpolation
    between closest ranks.  Does not mutate its argument. *)

val median : float array -> float

val cdf_at : float array -> x:float -> float
(** Empirical CDF: fraction of samples [<= x]. *)

val fraction_at_least : float array -> threshold:float -> float
(** Fraction of samples [>= threshold] (survival function, used for the
    "share with at least k flows" statistic). *)

val jain : float array -> float
(** Jain's fairness index [(Σx)² / (n·Σx²)], in (0, 1] for any
    non-degenerate sample: 1 when all values are equal, 1/n when a
    single element carries everything.  Empty or all-zero samples are
    defined as 1. (idle, not unfair). *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  p90 : float;
  p99 : float;
  max : float;
}

val summarize : float array -> summary
(** Full summary; raises [Invalid_argument] on empty input. *)

type ewma
(** Exponentially weighted moving average with fixed smoothing factor. *)

val ewma : alpha:float -> ewma
(** [alpha] in (0, 1]: weight of each new observation. *)

val ewma_update : ewma -> float -> unit
val ewma_value : ewma -> float option
(** [None] until the first observation. *)

val ewma_value_or : ewma -> default:float -> float

val ewma_next : ewma -> float -> n:int -> float
(** [ewma_next e x ~n] is the value the estimate would take after [n]
    coalesced observations whose mean is [x], without mutating [e] —
    equivalent to [n] sequential {!ewma_update}s of [x].  Lets batch
    consumers (the epoch-coalescing context server) preview or commit a
    whole epoch's reports in one step.  [n] must be positive. *)

val ewma_update_n : ewma -> float -> n:int -> unit
(** Commit the {!ewma_next} step. *)
