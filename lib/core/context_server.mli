(** The Phi context server (Section 2.2.2), at datacenter scale.

    A per-domain repository of shared network state.  Senders interact
    with it exactly twice per connection: a {!lookup} when the connection
    starts (returning the current {!Context.t} for the path, and counting
    the sender as active) and a {!report} when it ends (feeding the
    connection's own measurements back).  From those minimal signals the
    server estimates the congestion context:

    - [u]: bytes reported over a sliding window, divided by the path
      capacity (configured, or learned as the largest rate ever seen);
    - [q]: EWMA of reported [mean_rtt - min_rtt];
    - [n]: currently active connections (lookups minus reports);
    - loss: EWMA of reported retransmission fractions.

    The implementation is shaped like the service a "five computers"
    operator would deploy, not a toy table:

    - {b Shards.}  Prefixes hash (stable FNV-1a) onto [shards]
      independent shards, each with its own epoch and one table keyed by
      prefix, whose entry holds the prefix's committed state and its
      open batch — the unit of parallel service and of the swarm
      benchmark's balance metric.  A message costs the hash that picks
      its shard and one probe of that shard's table.
    - {b Epoch batching.}  Reports and lookup registrations coalesce in
      the prefix's open batch and are committed in one pass per epoch
      ([epoch_s]) instead of mutating per-path state per message.  The
      pass walks the shard's dirty list, the entries with an open batch,
      and nothing else.
    - {b Bounded staleness.}  A lookup carries the number of epochs of
      staleness it tolerates; staleness-0 answers overlay the pending
      batch, staleness-[k] answers are served from the committed
      snapshot as long as it is at most [k] epochs old.
    - {b Bounded memory.}  The utilization window is a ring of per-epoch
      byte buckets (no report list, no pruning allocation), unknown
      prefixes that only get looked up never enter the committed table,
      and a TTL/LRU sweep evicts prefixes that stop reporting.

    The server learns path state only from its own senders' reports.
    The "ideal" variants of the paper's experiments read live bottleneck
    utilization from a {!Phi_net.Monitor} instead, without going
    through the server. *)

type t

val create :
  Phi_sim.Engine.t ->
  ?capacity_bps:float ->
  ?window_s:float ->
  ?epoch_s:float ->
  ?shards:int ->
  ?max_paths_per_shard:int ->
  ?ttl_epochs:int ->
  unit ->
  t
(** [window_s] (default 10 s) is the horizon of the utilization estimate.
    Without [capacity_bps] the server learns capacity from the peak
    observed rate.  [epoch_s] (default 1 s) is the batching interval;
    [shards] (default 1) the number of independent shards;
    [max_paths_per_shard] (default 65536) the per-shard resident-path
    budget and [ttl_epochs] (default 600) the idle lifetime before a
    prefix is swept.  Raises [Invalid_argument], naming the field and
    its value, when [window_s], [epoch_s] or [capacity_bps] is not
    positive and finite, when a count is below 1, and, naming both
    fields, when [window_s] spans more than {!max_window_epochs}
    epochs: every prefix keeps two rings of one bucket per epoch. *)

val max_window_epochs : int
(** 1024: the most epochs of [epoch_s] that [window_s] may span. *)

val shard_count : t -> int

val lookup : ?max_staleness:int -> t -> path:string -> Context.t
(** Called by a sender when a connection starts.  [max_staleness]
    (default 0) is the freshness demand in epochs: 0 answers from the
    committed snapshot overlaid with the shard's pending batch; [k > 0]
    answers from the committed snapshot alone, which is refreshed first
    if it is more than [k] epochs old. *)

val lookup_epoch : ?max_staleness:int -> t -> path:string -> Context.t * int
(** Like {!lookup}, also returning the epoch the answer was computed
    from so the caller can check its staleness bound was honoured. *)

val report :
  t ->
  path:string ->
  bytes:int ->
  duration_s:float ->
  min_rtt:float ->
  mean_rtt:float ->
  retransmitted:int ->
  segments:int ->
  unit
(** Called by a sender when a connection ends.  [min_rtt]/[mean_rtt] may be
    NaN when the connection took no RTT sample. *)

val report_stats : t -> path:string -> Phi_tcp.Flow.conn_stats -> unit
(** Convenience wrapper around {!report} for a finished connection. *)

val handle : t -> Context_wire.request -> Context_wire.response
(** Serve one decoded wire message — the entry point a transport would
    call after {!Context_wire.decode_request}. *)

val peek : t -> path:string -> Context.t
(** Current (staleness-0) context without registering a connection
    (monitoring UIs, tests). *)

val flush : t -> unit
(** Commit every shard's pending batch now, regardless of epoch — used
    at quiesce points (end of an experiment, tests comparing sharded
    and reference servers at an epoch boundary). *)

val active_connections : t -> path:string -> int

val lookup_count : t -> int

val report_count : t -> int
(** Total messages processed — the "minimal overhead" the paper argues
    for is [2] per connection; benches print these counters. *)

val learned_capacity_bps : t -> path:string -> float option
(** The capacity estimate in use for [path] when none was configured. *)

val resident_paths : t -> int
(** Prefixes with committed state, across all shards.  Lookup-only
    prefixes never become resident (see the eviction model above). *)

val pending_paths : t -> int
(** Prefixes with an open batch (uncommitted activity), across all
    shards. *)

val eviction_count : t -> int

val flush_count : t -> int

type shard_stat = {
  lookups : int;
  reports : int;
  resident : int;
  evictions : int;
  flushes : int;
}

val shard_stats : t -> shard_stat array
(** Per-shard counters, in shard order — the swarm benchmark derives its
    Jain balance index from these. *)
