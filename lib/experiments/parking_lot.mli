(** 1000-sender multi-bottleneck parking lot on the parallel engine.

    The scenario the serial engine could not reach: [segments]
    bottleneck hops in a row, each loaded by its own [local_pairs]
    Cubic pairs, plus [long_flows] Cubic flows traversing every hop.
    Each segment is a [Phi_sim.Pdes] island with its own engine and
    packet pool; adjacent segments are joined by [Phi_net.Boundary_link]
    pairs whose propagation delay ([cut_delay_s]) is the lookahead, so
    the islands advance in parallel windows of that size.

    The run is deterministic in the worker count: {!result.fingerprint}
    folds every link counter, boundary crossing, per-flow progress
    number and the engines' event counts, and must be identical for any
    [jobs] — that equality is asserted by the test suite and gated in
    the bench report's [pdes] section. *)

type spec = {
  segments : int;  (** bottleneck hops = islands (>= 1) *)
  local_pairs : int;  (** sender/receiver pairs per segment *)
  long_flows : int;  (** flows crossing every segment *)
  hop_bw_bps : float;  (** per-segment bottleneck bandwidth *)
  hop_delay_s : float;  (** one-way propagation of each bottleneck hop *)
  cut_bw_bps : float;  (** inter-segment (boundary) link bandwidth *)
  cut_delay_s : float;  (** boundary propagation = lookahead = window *)
  access_bw_bps : float;
  access_delay_s : float;
  buffer_pkts : int;  (** bottleneck queue capacity *)
  duration_s : float;
  seed : int;  (** staggers flow starts over the first second *)
}

val default_spec : spec
(** 4 segments x 240 local pairs + 40 long flows = 1000 senders;
    500 Mb/s hops (5 ms), 1 Gb/s cuts (10 ms lookahead), 8 s. *)

val senders : spec -> int
(** Total transmitting connections ([segments * local_pairs +
    long_flows]). *)

type hop_stat = {
  delivered : int;  (** packets carried by the hop (both directions) *)
  drops : int;
  bytes : int;
  utilization : float;  (** forward-direction serialization time / duration *)
}

type result = {
  jobs : int;  (** worker domains actually used (1 under the sanitizer) *)
  islands : int;
  window_s : float;
  wall_s : float;
  events : int;  (** engine events executed, summed over islands *)
  events_per_s : float;
  fingerprint : string;  (** jobs-invariant digest of the whole run *)
  long_goodput_bps : float;  (** aggregate acked goodput of the long flows *)
  local_goodput_bps : float;
  hop_stats : hop_stat array;  (** one per segment *)
  boundary_packets : int;  (** packets imported across all cuts *)
  retransmitted : int;  (** total retransmitted segments *)
}

val run : ?jobs:int -> ?spec:spec -> unit -> result
(** Build the partitioned topology and advance it to
    [spec.duration_s] with [jobs] worker domains (clamped to the
    island count; forced serial under [PHI_SANITIZE=1]).  Raises
    [Invalid_argument] on a non-positive segment count or [jobs < 1]. *)
