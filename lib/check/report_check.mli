(** Validation and regression gating for bench reports.

    A report is produced by [bench/main.exe --json PATH] and carries
    one schema string, {!schema}.  Which sections it must carry follows
    from its own "experiments" list: [micro] emits "micro", "alloc" and
    "decision"; [matrix] emits "cc_matrix" (which must cover every
    algorithm registered in [Phi.Cc_algo]) and [wan_matrix] emits
    "wan_matrix" (which must carry a matching serial determinism probe),
    both in the one algorithm-matrix row layout; [swarm] and [pdes]
    each emit the section of the same name.  A listed
    experiment without its sections fails, and so does a section
    without its experiment — so a partial [--only] run is checked as
    strictly as a full one.

    [check] is pure validation over the parsed JSON — the CI gate
    ([bin/phi_json_check.ml]) is a thin exit-code wrapper around it,
    and the gate's own unit tests inject regressions here to prove the
    gate trips. *)

val schema : string
(** ["phi-bench-report/9"], the only schema [check] accepts. *)

val max_minor_words_per_packet : float
(** The allocation budget enforced on the "alloc" section's
    [minor_words_per_packet] figure. *)

val min_swarm_lookups_per_s : float
(** The committed throughput floor enforced on the "swarm" section's
    [lookups_per_s] figure. *)

val max_swarm_p99_lookup_s : float
(** The committed tail-latency budget enforced on the "swarm" section's
    [p99_lookup_s] figure, in seconds. *)

val min_decision_speedup : float
(** The committed floor on the "decision" section's [speedup] figure:
    compiled whisker lookups must beat the interpreted scan by at least
    this factor on the converged-size benchmark table. *)

val max_minor_words_per_lookup : float
(** The allocation budget enforced on the "decision" section's
    [minor_words_per_lookup] figure — effectively zero: one boxed float
    on the lookup path (2 words) trips it. *)

val min_pdes_speedup_at_4 : float
(** The committed scaling floor on the "pdes" section: wall-clock
    speedup of the >= 4-domain run over the 1-domain run of the
    1000-sender parking lot.  Enforced only when the report's box has
    at least 4 cores and the curve includes a >= 4-domain run; the
    section's determinism gates (identical fingerprints and event
    counts across every worker count) are enforced unconditionally. *)

val check : path:string -> Phi_util.Json.t -> (unit, string) result
(** [check ~path doc] validates a parsed bench report.  [path] is used
    only to prefix error messages.  Returns [Error message] on the
    first violation: a schema other than {!schema}, missing required
    fields, a section missing for a listed experiment or present
    without one, malformed sections, or a committed-budget regression
    (allocation, swarm throughput, swarm tail latency, decision-plane
    speedup, per-lookup allocation, matrix row fairness/FCT sanity,
    cc_matrix registry coverage, wan_matrix serial-probe determinism,
    pdes determinism or scaling). *)
