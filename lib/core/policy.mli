(** Mapping congestion context to a congestion-control choice.

    Phi's coordination, concretely: every cooperating sender asks the
    policy which algorithm (and parameter setting) fits the current
    network weather.  A policy is a table keyed on {!Context.bucket} —
    populated from offline sweeps exactly like the paper's Section 2.2.1
    grid search — with a documented heuristic fallback for buckets never
    swept (derived from the paper's observations: shift to smaller
    initial windows and slow-start thresholds, and sharper back-off, as
    congestion rises).  Choices are {!Cc_algo.t} values, so a bucket can
    select any registered algorithm, not just Cubic parameters. *)

type t

val create : unit -> t
(** An empty policy: until a bucket is learned, {!choice_for} answers
    with {!heuristic}. *)

val learn : t -> Context.bucket -> Cc_algo.t -> unit
(** Record the optimal choice found for a bucket (overwrites).  A
    {!Compiled} form taken earlier does not see it. *)

val learned : t -> (Context.bucket * Cc_algo.t) list

val choice_for : t -> Context.t -> Cc_algo.t
(** Exact bucket hit; otherwise the nearest learned bucket (L1 bucket
    distance, at most 2 away); otherwise {!heuristic}.  The interpreted
    reference: walks the learned table on every miss.  Hot paths go
    through {!Compiled.choice_for} instead. *)

val heuristic : Context.t -> Cc_algo.t
(** Rule-based Cubic parameters from the paper's findings: low congestion
    admits an aggressive start (large initial window, generous ssthresh);
    high congestion calls for a conservative start; persistent heavy
    congestion with deep queues also calls for a larger beta (sharper
    back-off, the Figure 2c observation).  Returns one of six presets
    computed at module init — no per-call allocation. *)

(** The compiled decision plane: the bucket → choice resolution
    precomputed into a flat dense array keyed by {!Context.bucket_code}.
    Compilation runs the same exact/nearest resolution as {!choice_for}
    for all 64 buckets (the values are physically the learned ones);
    buckets that would fall through to the heuristic stay [None] and
    resolve through the preset-backed heuristic at lookup — so a
    compiled choice is always physically identical to the interpreted
    one.  Immutable and domain-shareable: a snapshot of the source
    policy, so compile after the last {!learn}. *)
module Compiled : sig
  type policy := t

  type t

  val compile : policy -> t

  val choice_for : t -> Context.t -> Cc_algo.t
  (** One bucketization + one array load (heuristic presets on [None]):
      allocation-free. *)
end
