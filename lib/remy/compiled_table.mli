(** The decision-plane compiler: lower a trained {!Rule_table.t} into
    flat, unboxed match tables.

    The interpreted table is a linear scan over boxed whisker records —
    fine for training, hostile to the per-ack hot path.  Following the
    NetKAT-compiler idiom (compile the policy language once, then do
    cheap lookups forever), [compile] lowers the whisker partition into:

    - per-axis sorted {e cut points} (every distinct box boundary on that
      axis), padded to a power-of-two length with [infinity] so interval
      location is a branch-free binary search;
    - a flat {e cell → whisker index} array over the grid the cuts
      induce (axis-major), resolved at compile time by the interpreted
      reference lookup on each cell's center;
    - structure-of-arrays copies of the (already clamped) whisker
      actions in unboxed [floatarray]s.

    Because the grid boundaries include every whisker's own boundaries,
    each whisker box is exactly a union of grid cells, so the compiled
    lookup agrees with the interpreted one on {e every} point of the
    unit cube — including points exactly on cut planes (half-open boxes,
    upper face inclusive at 1).  A qcheck property and the pretrained
    tables pin this equivalence.

    The compiled form is immutable and safe to share across
    {!Phi_runner.Pool} domains.  It is a snapshot of its source: a later
    {!Rule_table.split}, {!Rule_table.split_axis} or
    {!Rule_table.set_action} does not reach it, so compile after the
    last mutation. *)

type t

val compile : Rule_table.t -> t
(** Lower the table.  O(cells x whiskers) — done once per trained table,
    off the hot path.  Raises [Invalid_argument] if the whiskers do not
    tile the unit cube exactly — the grid does not span [\[0, 1\]] on
    every axis, a point inside it matches no whisker, or two whiskers
    overlap — or if the induced grid exceeds 2^22 cells (a partition
    that fine is a training bug). *)

val lookup : t -> floatarray -> int
(** The whisker index (position in [Rule_table.whiskers] of the source)
    containing the point.  Branch-free interval binary search per axis +
    one flat array load: no allocation, no pointer chasing.  The point
    must have at least [dims] coordinates; coordinates are clamped to
    the grid, so out-of-cube points resolve to the nearest edge cell
    rather than raising. *)

val lookup_point : t -> float array -> int
(** {!lookup} for a boxed point (allocates a scratch; for tests and
    cold paths). *)

val apply : t -> int -> cwnd:float -> float
(** [Whisker.apply] for the indexed action, replaying the exact same
    float operations on the SoA copies — byte-identical windows. *)

val window_increment : t -> int -> float
val window_multiple : t -> int -> float

val intersend_s : t -> int -> float
(** The indexed action's pacing gap, straight from the unboxed copy. *)

val dims : t -> int

val size : t -> int
(** Number of whisker actions (= [Rule_table.size] of the source at
    compile time). *)

val cell_count : t -> int
(** Number of grid cells in the flat match table. *)
