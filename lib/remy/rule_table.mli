(** A Remy congestion-control program: a partition of the memory space
    into whiskers. *)

type t

val create : dims:int -> Whisker.action -> t
(** One whisker covering the whole unit cube with the given action. *)

val dims : t -> int

val whiskers : t -> Whisker.t list

val size : t -> int

val lookup : t -> float array -> Whisker.t
(** The unique whisker containing the point.  Pure: shared tables can be
    looked up concurrently.  Raises [Invalid_argument] on dimension
    mismatch or if the partition is somehow broken. *)

val lookup_index : t -> float array -> int
(** Like {!lookup} but returns the whisker's position in {!whiskers}
    (the same index space {!Compiled_table.lookup} returns). *)

val set_action : t -> Whisker.t -> Whisker.action -> unit
(** Replace a whisker's action, clamped as {!Whisker.create} clamps.
    Raises [Invalid_argument] if the whisker is not in the table or a
    field of the action is not finite.  A {!Compiled_table} compiled
    earlier keeps the old action: it is a snapshot. *)

val split : t -> Whisker.t -> unit
(** Replace a whisker by its [2^d] children, all inheriting its action.
    Raises [Invalid_argument] if the whisker is not in the table. *)

val split_axis : t -> Whisker.t -> axis:int -> unit
(** Bisect a whisker along one axis only (two children).  Used to refine
    the utilization dimension without diluting the rest of the memory
    space.  Raises [Invalid_argument] on unknown whiskers or axes. *)

val extrude : t -> t
(** Lift every whisker into one more dimension, spanning [\[0, 1\]] on the
    new axis.  This is how a Phi table is seeded from a trained classic
    table: start as utilization-oblivious, let training split the new
    axis where the signal pays. *)

val serialize : t -> string

val deserialize : string -> t
(** Inverse of {!serialize}; raises [Whisker.Parse_error] on malformed
    input. *)
