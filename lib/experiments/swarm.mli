(** The swarm benchmark: a million-flow context plane under load.

    The paper's pitch is that a "five computers" operator can afford a
    per-domain context service precisely because the protocol is two
    tiny messages per connection.  This experiment holds that claim to
    production shape: one million short flows from the Section 2.1 trace
    generator (Zipf destinations, Pareto sizes) are turned into their
    lookup/report wire messages, partitioned over [cells] independent
    {!Phi.Context_server} groups by path hash, and served in timestamp
    order against each group's virtual clock.  Every message round-trips
    through {!Phi.Context_wire} — encode, decode, serve, encode the
    response, decode it back — so the measured path is the real one.

    Results split cleanly in two:

    - a deterministic {e fingerprint} (message counts, an FNV checksum
      over every response byte, residency, evictions, Jain shard-balance
      index) that is byte-identical for a given config whatever [?jobs]
      is — the cell partition is fixed by the workload, not by the
      worker count;
    - {e timing} (lookups/s, reports/s, p50/p99 lookup service latency)
      from CLOCK_MONOTONIC, which CI gates against committed floors. *)

type config = {
  n_flows : int;
  seed : int;
  cells : int;  (** independent server groups (fixed, not tied to [?jobs]) *)
  shards_per_cell : int;
  epoch_s : float;
  window_s : float;
  ttl_epochs : int;
  max_paths_per_shard : int;
}

val default_config : config
(** One million flows over 8 cells of 8 shards — 64 shard bins for the
    balance index — with 1 s epochs and a 120-epoch TTL so the decay
    sweep actually runs within the trace horizon. *)

type result = {
  flows : int;
  lookups : int;
  reports : int;
  resident_paths : int;  (** committed prefixes after the final flush *)
  evictions : int;
  flushes : int;
  checksum : int;  (** FNV-1a over every encoded response, cell-ordered *)
  jain_index : float;  (** Jain fairness of per-shard lookup counts *)
  choice_counts : (string * int) list;
      (** Per-algorithm tally of the compiled-policy choices made from
          decoded lookup responses (the client half of connection
          setup); sums to [lookups] and is part of the fingerprint. *)
  fingerprint : string;  (** the deterministic half, as one line *)
  elapsed_s : float;
  lookups_per_s : float;
  reports_per_s : float;
  p50_lookup_s : float;
  p99_lookup_s : float;
}

val swarm_policy : unit -> Phi.Policy.t
(** The fleet policy every decoded lookup response is run through: a
    fresh learned table with one bucket per registered algorithm, so
    choices exercise both the flat-array hits and the heuristic
    fallback.  The bench's decision-plane microbenchmark measures the
    same policy. *)

val run : ?jobs:int -> ?config:config -> unit -> result
(** Generate, partition, and serve the swarm.  [?jobs] only sets the
    domain fan-out of cell execution; the fingerprint must not depend on
    it (the jobs-invariance test holds this). *)
