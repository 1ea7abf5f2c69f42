(** A whisker: one rule of a Remy congestion-control program.

    A whisker owns an axis-aligned box of the (normalized) memory space
    and prescribes the action to take whenever the sender's memory falls
    inside it: how to map the congestion window and how long to wait
    between sends. *)

type action = {
  window_increment : float;  (** additive term, segments *)
  window_multiple : float;  (** multiplicative term *)
  intersend_s : float;  (** minimum gap between packet sends *)
}

val clamp_action : action -> action
(** Clamp into the optimizer's search bounds: increment in [-10, 32]
    (large enough that an idle-network whisker can open a whole short
    transfer's window at once), multiple in [0.1, 2], intersend in
    [0.0002, 0.5] s.  Raises [Invalid_argument] naming the field if
    one is NaN or infinite. *)

val default_action : action
(** A sane conservative starting rule (increment 1, multiple 1, 1 ms
    intersend). *)

val max_cwnd : float
(** 1024 segments: the cap {!apply} enforces.  Exported so
    [Compiled_table.apply] replays the exact same float operations. *)

val apply : action -> cwnd:float -> float
(** [max 1 (multiple * cwnd + increment)], capped at 1024 segments. *)

type box = { lo : float array; hi : float array }
(** Half-open box: [lo.(i) <= x.(i) < hi.(i)].  The root box is
    [\[0, 1)^d] (with 1 treated inclusively by {!contains} so utilization
    1.0 still matches). *)

val root_box : dims:int -> box

val contains : box -> float array -> bool

val split_box : box -> box list
(** All [2^d] children obtained by bisecting every dimension. *)

type t = { box : box; mutable action : action }
(** Usage accounting lives outside the whisker: the trainer keeps an
    explicit per-whisker counts array (see [Trainer]), so lookups on
    shared tables stay pure. *)

val create : box -> action -> t
(** The action goes through {!clamp_action}, so a non-finite field
    raises [Invalid_argument]. *)

val pp : Format.formatter -> t -> unit

(** {2 Serialization} — a line-oriented text format used to embed trained
    tables in the library and to save/load them from disk. *)

exception Parse_error of string
(** Raised by {!of_line} (and [Rule_table.deserialize]) on malformed
    table text. *)

val to_line : t -> string

val of_line : string -> t
(** Raises {!Parse_error} on malformed input, a non-finite box or action
    field, or a box that leaves [\[0, 1\]] or is empty on some axis
    ([lo >= hi]). *)
