(** Domain-based fan-out for embarrassingly parallel experiment grids.

    Every (setting, seed) cell of a parameter sweep is an independent
    deterministic simulation, so a sweep is a [map] over cells.  [map]
    fans the cells across OCaml 5 domains and reassembles the results in
    submission order, making the parallel run's output bit-for-bit
    identical to the serial run's — callers never observe completion
    order.

    {2 Domain-safety contract}

    The job function is executed concurrently on several domains, so it
    must not touch shared mutable state.  The experiment harness
    satisfies this by constructing everything per run from the seed: a
    job builds its own {!Phi_util.Prng.t}, engine, topology and result
    records, and returns a pure value.  Global accumulators are the one
    exception in this codebase — the {!Phi_sim.Invariant} sanitizer's
    report buffer is process-global.  The pool does not consult it, so
    armed runs ([PHI_SANITIZE=1]) fan out like any other; the
    sanitizer serializes its own writes.  A phi-lint rule
    ([domain-global]) guards against introducing new top-level mutable
    state under [lib/experiments] and [lib/runner]. *)

type error = {
  index : int;  (** position of the failed job in the submission list *)
  exn : exn;
  backtrace : string;  (** raw backtrace, empty unless recording is on *)
}

exception Job_failed of error list
(** Raised by {!map} after the whole batch has drained, carrying every
    failure (submission order).  One failing job never kills the pool or
    its sibling jobs. *)

val available_cores : unit -> int
(** The parallelism available to this process: the [PHI_CORES]
    environment variable when set to a positive integer (the escape
    hatch for containers whose limits misreport), otherwise
    [Domain.recommended_domain_count ()] — which already accounts for
    cgroup quotas and CPU affinity.  This is what bench reports record
    as ["cores"] and the default width for [--jobs]. *)

val default_jobs : unit -> int
(** Worker count used when [?jobs] is omitted: the [PHI_JOBS]
    environment variable when set to a positive integer, otherwise
    {!available_cores}. *)

val tune_gc : unit -> unit
(** Size the calling domain's minor heap for sweep workloads: the
    [PHI_MINOR_HEAP] environment variable (in words) when set to a
    positive integer, otherwise 64 Kwords (512 KB) — small enough to
    stay cache-resident next to the event and packet slabs, which is
    what matters now that the steady-state hot path allocates nothing.
    {!try_map} applies this to every worker domain (and to the calling
    domain on the serial path), so sweeps get it automatically;
    standalone drivers may call it directly. *)

val effective_jobs : ?jobs:int -> cells:int -> unit -> int
(** The worker count a [try_map ?jobs] over [cells] items actually
    uses: [jobs] (default {!default_jobs}) clamped to the cell count
    (floor 1).  Bench sections stamp this into their report metadata so
    BENCH_*.json records the parallelism each section really ran with —
    including [--jobs] overrides — not just the machine default.

    @raise Invalid_argument when [jobs < 1]. *)

val try_map : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, error) result list
(** [try_map ~jobs f xs] applies [f] to every element of [xs] on a pool
    of [min jobs (List.length xs)] domains (the calling domain counts as
    one worker, so [jobs:4] spawns three).  Results are returned in
    submission order regardless of completion order.  A job that raises
    is captured as [Error] — siblings run to completion.  [jobs:1] (or a
    batch of one) runs everything serially in the calling domain with no
    domain spawned at all — exactly the pre-pool code path.

    @raise Invalid_argument when [jobs < 1]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Like {!try_map} but unwraps the results.

    @raise Job_failed when any job raised, after all jobs finished. *)

val fan_out : ?jobs:int -> seeds:'s list -> ('g -> 's -> 'r) -> 'g list -> ('g * 'r array) list
(** The seeded-experiment shape: [fan_out ~seeds f groups] runs
    [f g s] for every group [g] and seed [s] as one {!map} job each
    (group-major, seed-minor, so the pool balances across both axes)
    and hands every group back, in order, with its results in seed
    order.  Regrouping is positional, so the outcome is identical for
    every [jobs] value.

    @raise Invalid_argument when [seeds] is empty.
    @raise Job_failed as {!map} does. *)

val error_to_string : error -> string
(** [job 17: Failure("boom")] — one line per failure, for reports. *)
