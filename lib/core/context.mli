(** The congestion context of Section 2.2.2.

    The paper characterizes the state of a network path by (i) the
    bottleneck utilization [u], (ii) the queue occupancy [q] (observed by
    senders as RTT in excess of the minimum) and (iii) the number of
    competing senders [n].  We carry the loss rate as a fourth,
    derived signal since the context server learns it for free from
    connection reports. *)

type t = {
  utilization : float;  (** bottleneck busy fraction in [0, 1] *)
  queue_delay_s : float;  (** estimated queueing delay *)
  competing_senders : int;  (** concurrently active flows on the path *)
  loss_rate : float;  (** recent retransmission fraction in [0, 1] *)
}

val empty : t
(** The all-quiet context a server reports before any information
    arrives. *)

val severity : t -> float
(** Scalar congestion level in [0, 1]; a monotone blend of the three
    primary signals, useful for coarse decisions and ordering. *)

(** {2 Bucketing}

    Policies key shared knowledge on a coarse grid so that a modest number
    of observed workloads covers the context space. *)

type bucket = { u_bucket : int; n_bucket : int; q_bucket : int }

val bucketize : t -> bucket
(** Threshold ladders per axis — utilization at 0.3/0.6/0.85, competing
    senders at 2/8/32, queue delay at 10/50/200 ms — four buckets each.
    Pure code, no module-level edge tables: bucketing runs inside pool
    worker domains. *)

val bucket_codes : int
(** 64: the number of distinct buckets (4 per axis, 3 axes).  Packed
    codes index the flat [Policy.Compiled] choice table. *)

val pack_bucket : bucket -> int
(** The bucket's packed code: [u*16 + n*4 + q], in [0, bucket_codes). *)

val bucket_of_code : int -> bucket
(** Inverse of {!pack_bucket}; raises [Invalid_argument] out of range. *)

val bucket_code : t -> int
(** [pack_bucket (bucketize t)] without allocating the intermediate
    bucket record — the hot-path entry into compiled policy tables. *)

val bucket_distance : bucket -> bucket -> int
(** L1 distance on bucket coordinates — used for nearest-neighbour policy
    fallback. *)

val pp : Format.formatter -> t -> unit
